/**
 * @file
 * The shared input set of the codec tests: the lines every codec is
 * golden-pinned, size-checked and mutation-tested on, and the seeded
 * metadata entries the metadata codec is pinned and mutated on.
 */

#ifndef COMPRESSO_TESTS_CODEC_INPUTS_H
#define COMPRESSO_TESTS_CODEC_INPUTS_H

#include <vector>

#include "common/bitstream.h"
#include "common/rng.h"
#include "common/types.h"
#include "compress/compressor.h"
#include "meta/metadata_entry.h"
#include "workloads/datagen.h"

namespace compresso {

/** Every factory name of a line codec. */
inline constexpr const char *kCodecNames[] = {"bpc", "bpc-xform", "bdi",
                                              "fpc", "cpack",     "lz"};

/**
 * Every DataClass x 16 seeds, 100 random lines, 100 sparse lines (a
 * few random bytes poked into zeros), the zero line and the all-ones
 * line, in that order.
 */
inline std::vector<Line>
codecTestLines()
{
    std::vector<Line> lines;
    Line line{};
    for (size_t c = 0; c < kNumDataClasses; ++c) {
        for (uint64_t seed = 0; seed < 16; ++seed) {
            generateLine(DataClass(c), seed, line);
            lines.push_back(line);
        }
    }
    Rng rng(0xc0ffee);
    for (int i = 0; i < 100; ++i) {
        for (size_t w = 0; w < 8; ++w)
            setLineWord64(line, w, rng.next());
        lines.push_back(line);
    }
    Rng sparse(0xbeef);
    for (int i = 0; i < 100; ++i) {
        line.fill(0);
        unsigned pokes = 1 + unsigned(sparse.below(6));
        for (unsigned p = 0; p < pokes; ++p)
            line[sparse.below(kLineBytes)] = uint8_t(sparse.next());
        lines.push_back(line);
    }
    line.fill(0);
    lines.push_back(line);
    line.fill(0xff);
    lines.push_back(line);
    return lines;
}

/** A codec stream: its bytes and its length in bits. */
struct CodecStream
{
    std::vector<uint8_t> bytes;
    size_t bits;
};

/** codecTestLines(), each encoded alone by @p codec. */
inline std::vector<CodecStream>
codecTestStreams(const Compressor &codec)
{
    std::vector<CodecStream> streams;
    for (const Line &line : codecTestLines()) {
        BitWriter w;
        codec.compress(line, w);
        streams.push_back({w.bytes(), w.bitSize()});
    }
    return streams;
}

/** Flip bit @p bit (MSB first) of @p b. */
inline void
flipBit(std::vector<uint8_t> &b, size_t bit)
{
    b[bit / 8] ^= uint8_t(0x80 >> (bit % 8));
}

/** A random-length prefix of @p s followed by at least one and at most
 *  a line plus 64 random bits. */
inline CodecStream
randomTail(Rng &rng, const CodecStream &s)
{
    size_t keep = rng.below(s.bits + 1);
    size_t bits = keep + 1 + rng.below(kLineBytes * 8 + 64);
    BitWriter w;
    BitReader prefix(s.bytes.data(), keep);
    for (size_t left = keep; left > 0;) {
        unsigned n = left < 64 ? unsigned(left) : 64;
        w.put(prefix.get(n), n);
        left -= n;
    }
    for (size_t left = bits - keep; left > 0;) {
        unsigned n = left < 64 ? unsigned(left) : 64;
        w.put(rng.next(), n);
        left -= n;
    }
    return {w.bytes(), w.bitSize()};
}

/** A metadata entry with every field drawn from @p rng in range. */
inline MetadataEntry
randomMetadataEntry(Rng &rng)
{
    MetadataEntry m;
    m.valid = rng.chance(0.9);
    m.zero = rng.chance(0.2);
    m.compressed = rng.chance(0.7);
    m.chunks = uint8_t(rng.below(kChunksPerPage + 1));
    m.free_space = uint16_t(rng.below(4096));
    m.inflate_count = uint8_t(rng.below(kMaxInflatedLines + 1));
    for (auto &f : m.mpfn)
        f = uint32_t(rng.below(1u << 28));
    for (auto &c : m.line_code)
        c = uint8_t(rng.below(4));
    for (auto &l : m.inflate_line)
        l = uint8_t(rng.below(kLinesPerPage));
    return m;
}

} // namespace compresso

#endif // COMPRESSO_TESTS_CODEC_INPUTS_H
