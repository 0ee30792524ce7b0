/**
 * @file
 * Golden bitstream lock for every line codec and the metadata codec.
 *
 * For each factory name, every compress() output over the shared
 * input set (tests/codec_inputs.h) is folded into one FNV-1a digest:
 * the stream's bit length as 8 little-endian bytes, then its bytes,
 * and last the one stream of all of them written back to back.
 * A second digest covers MetadataEntry::pack() over seeded entries,
 * and a third LzCompressor::matchSearchOps() over the shared lines.
 *
 * The codec constants were recorded from the codecs as they stood
 * before the bit I/O moved to word-level reads and writes and BPC to a
 * bit-matrix transpose, the matchSearchOps one from LZ's byte-serial
 * matcher before the position-mask matcher replaced it; any change to
 * a codec's output or to LZ's comparison count moves one.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "codec_inputs.h"
#include "compress/factory.h"
#include "compress/lz.h"

using namespace compresso;

namespace {

class Fnv1a
{
  public:
    void
    byte(uint8_t b)
    {
        h_ ^= b;
        h_ *= 0x100000001b3ULL;
    }

    void
    u64(uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i)
            byte(uint8_t(v >> (8 * i)));
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string
hex(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
    return buf;
}

void
addStream(Fnv1a &h, const BitWriter &w)
{
    h.u64(w.bitSize());
    for (uint8_t b : w.bytes())
        h.byte(b);
}

uint64_t
codecDigest(const Compressor &codec)
{
    Fnv1a h;
    // Every line on its own, then all of them back to back after a
    // 3-bit prefix, so that no symbol lands byte-aligned by default.
    BitWriter all;
    all.put(0b101, 3);
    for (const Line &line : codecTestLines()) {
        BitWriter w;
        codec.compress(line, w);
        addStream(h, w);
        codec.compress(line, all);
    }
    addStream(h, all);
    return h.value();
}

struct Golden
{
    const char *codec;
    uint64_t digest;
};

constexpr Golden kGolden[] = {
    {"bpc", 0x70e1dbf8eae14b4fULL},
    {"bpc-xform", 0x466396a8a556bab8ULL},
    {"bdi", 0xa7c261d9d92742e1ULL},
    {"fpc", 0xe9d5c8d2d666730aULL},
    {"cpack", 0x801d74beadbb07cbULL},
    {"lz", 0x765d3a34a676c0acULL},
};

constexpr uint64_t kMetadataGolden = 0xc1ad0995bc738fccULL;

constexpr uint64_t kLzMatchSearchOpsGolden = 0x9bbe1297119bb7cfULL;

} // namespace

TEST(CodecGolden, EveryCodecBitstream)
{
    ASSERT_EQ(std::size(kGolden), std::size(kCodecNames));
    for (const Golden &g : kGolden) {
        auto codec = makeCompressor(g.codec);
        ASSERT_TRUE(codec) << g.codec;
        EXPECT_EQ(hex(codecDigest(*codec)), hex(g.digest)) << g.codec;
    }
}

TEST(CodecGolden, MetadataEntryPack)
{
    Rng rng(0x6d657461);
    Fnv1a h;
    for (int i = 0; i < 512; ++i) {
        for (uint8_t b : randomMetadataEntry(rng).pack())
            h.byte(b);
    }
    // Default (invalid) entry and a fully populated one at the limits.
    MetadataEntry full;
    full.valid = full.zero = full.compressed = true;
    full.chunks = kChunksPerPage;
    full.free_space = 4095;
    full.inflate_count = kMaxInflatedLines;
    full.mpfn.fill((1u << 28) - 1);
    full.line_code.fill(3);
    full.inflate_line.fill(kLinesPerPage - 1);
    for (const MetadataEntry &m : {MetadataEntry{}, full})
        for (uint8_t b : m.pack())
            h.byte(b);
    EXPECT_EQ(hex(h.value()), hex(kMetadataGolden));
}

TEST(CodecGolden, LzMatchSearchOps)
{
    // The Sec. II-A energy proxy: the byte comparisons of LZ's greedy
    // parse, as 8 little-endian bytes per line. Lz.FastParseMatchesReference
    // checks the same counts against an in-test reference matcher; this
    // digest is the anchor that does not move if that reference is edited.
    LzCompressor lz;
    Fnv1a h;
    for (const Line &line : codecTestLines())
        h.u64(lz.matchSearchOps(line));
    EXPECT_EQ(hex(h.value()), hex(kLzMatchSearchOpsGolden));
}
