/**
 * @file
 * Decoder mutation harness: corrupted streams from every line codec and
 * from the metadata codec must decode to true or false, never crash,
 * read out of bounds or hang.
 *
 * The fault model feeds flipped bits to the decoders on purpose, so
 * every decoder sees here what an injected fault can hand it: single
 * and double bit flips, truncation to every shorter bit length, and
 * random tails after a valid prefix. Each mutated stream is decoded
 * from a heap buffer of exactly ceil(bits / 8) bytes, so that under the
 * asan-ubsan preset a read past the stream is a reported error.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "codec_inputs.h"
#include "compress/factory.h"

using namespace compresso;

namespace {

class CodecMutation : public ::testing::TestWithParam<const char *>
{
  protected:
    void
    SetUp() override
    {
        codec_ = makeCompressor(GetParam());
        ASSERT_TRUE(codec_);
        streams_ = codecTestStreams(*codec_);
    }

    /** Decode the first @p bits of @p bytes from an exact-size copy. */
    bool
    decode(const std::vector<uint8_t> &bytes, size_t bits,
           size_t *consumed = nullptr) const
    {
        std::vector<uint8_t> buf(bytes.begin(),
                                 bytes.begin() + ptrdiff_t((bits + 7) / 8));
        BitReader r(buf.data(), bits);
        Line out{};
        bool ok = codec_->decompress(r, out);
        if (consumed)
            *consumed = r.pos();
        return ok;
    }

    std::unique_ptr<Compressor> codec_;
    std::vector<CodecStream> streams_;
};

TEST_P(CodecMutation, ValidStreamsDecodeAndConsumeExactly)
{
    for (const CodecStream &s : streams_) {
        size_t consumed = 0;
        ASSERT_TRUE(decode(s.bytes, s.bits, &consumed));
        ASSERT_EQ(consumed, s.bits);
    }
}

TEST_P(CodecMutation, SingleBitFlips)
{
    for (const CodecStream &s : streams_) {
        std::vector<uint8_t> b = s.bytes;
        for (size_t bit = 0; bit < s.bits; ++bit) {
            flipBit(b, bit);
            decode(b, s.bits);
            flipBit(b, bit);
        }
    }
}

TEST_P(CodecMutation, DoubleBitFlips)
{
    Rng rng(0xd0b1e);
    for (const CodecStream &s : streams_) {
        std::vector<uint8_t> b = s.bytes;
        for (int i = 0; i < 64; ++i) {
            size_t x = rng.below(s.bits), y = rng.below(s.bits);
            flipBit(b, x);
            flipBit(b, y);
            decode(b, s.bits);
            flipBit(b, y);
            flipBit(b, x);
        }
    }
}

TEST_P(CodecMutation, TruncationToEveryShorterLength)
{
    // A valid stream is consumed exactly, so any cut makes the decoder
    // read past the end, which it must report.
    for (const CodecStream &s : streams_) {
        for (size_t bits = 0; bits < s.bits; ++bits)
            ASSERT_FALSE(decode(s.bytes, bits)) << "cut at " << bits;
    }
}

TEST_P(CodecMutation, RandomTails)
{
    Rng rng(0x7a11);
    for (const CodecStream &s : streams_) {
        for (int i = 0; i < 16; ++i) {
            CodecStream t = randomTail(rng, s);
            decode(t.bytes, t.bits);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecMutation,
                         ::testing::ValuesIn(kCodecNames),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (auto &ch : n)
                                 if (ch == '-')
                                     ch = '_';
                             return n;
                         });

// ---------------------------------------------------------------------
// The metadata codec reads a fixed 64 B entry, so a cut is modelled by
// zeroing (truncation) or randomizing (random tail) every bit past it.
// ---------------------------------------------------------------------

TEST(MetadataMutation, FlipsCutsAndTails)
{
    Rng rng(0x3e7a);
    constexpr size_t kBits = kMetadataEntryBytes * 8;
    for (int e = 0; e < 16; ++e) {
        auto raw = randomMetadataEntry(rng).pack();
        MetadataEntry out;
        ASSERT_TRUE(MetadataEntry::unpack(raw, out));
        for (size_t bit = 0; bit < kBits; ++bit) {
            auto m = raw;
            m[bit / 8] ^= uint8_t(0x80 >> (bit % 8));
            MetadataEntry::unpack(m, out);
            size_t other = rng.below(kBits);
            m[other / 8] ^= uint8_t(0x80 >> (other % 8));
            MetadataEntry::unpack(m, out);
        }
        for (size_t cut = 0; cut < kBits; ++cut) {
            auto zeroed = raw, noisy = raw;
            for (size_t bit = cut; bit < kBits; ++bit) {
                uint8_t mask = uint8_t(0x80 >> (bit % 8));
                zeroed[bit / 8] &= uint8_t(~mask);
                if (rng.chance(0.5))
                    noisy[bit / 8] ^= mask;
            }
            MetadataEntry::unpack(zeroed, out);
            MetadataEntry::unpack(noisy, out);
        }
    }
}

} // namespace
