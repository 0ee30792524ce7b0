/**
 * @file
 * Unit + property tests for the line compressors (BPC, BDI, FPC,
 * C-PACK): exact round-trips on every data class and on adversarial
 * random data, plus the algorithm-specific size expectations the
 * compression-ratio experiments rely on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "codec_inputs.h"
#include "compress/bdi.h"
#include "compress/bpc.h"
#include "compress/cpack.h"
#include "compress/factory.h"
#include "compress/fpc.h"
#include "compress/lz.h"
#include "workloads/datagen.h"

using namespace compresso;

namespace {

Line
makeLine(std::initializer_list<uint32_t> words)
{
    Line line{};
    size_t i = 0;
    for (uint32_t w : words) {
        setLineWord32(line, i++, w);
        if (i == 16)
            break;
    }
    return line;
}

void
expectRoundTrip(const Compressor &c, const Line &in, const char *what)
{
    BitWriter w;
    size_t bits = c.compress(in, w);
    ASSERT_GT(bits, 0u) << what;
    BitReader r(w.bytes().data(), w.bitSize());
    Line out{};
    ASSERT_TRUE(c.decompress(r, out)) << c.name() << " on " << what;
    EXPECT_EQ(in, out) << c.name() << " on " << what;
}

} // namespace

// ---------------------------------------------------------------------
// Round-trip property tests, parameterized over every algorithm.
// ---------------------------------------------------------------------

class CompressorRoundTrip : public ::testing::TestWithParam<std::string>
{
  protected:
    std::unique_ptr<Compressor> codec_ = makeCompressor(GetParam());
};

TEST_P(CompressorRoundTrip, ZeroLine)
{
    Line line{};
    expectRoundTrip(*codec_, line, "zero line");
}

TEST_P(CompressorRoundTrip, AllOnesLine)
{
    Line line;
    line.fill(0xff);
    expectRoundTrip(*codec_, line, "all-ones line");
}

TEST_P(CompressorRoundTrip, EveryDataClass)
{
    for (size_t c = 0; c < kNumDataClasses; ++c) {
        for (uint64_t seed = 0; seed < 16; ++seed) {
            Line line;
            generateLine(DataClass(c), seed, line);
            expectRoundTrip(*codec_, line,
                            dataClassName(DataClass(c)));
        }
    }
}

TEST_P(CompressorRoundTrip, RandomLines)
{
    Rng rng(0xc0ffee);
    for (int iter = 0; iter < 100; ++iter) {
        Line line;
        for (size_t i = 0; i < 8; ++i)
            setLineWord64(line, i, rng.next());
        expectRoundTrip(*codec_, line, "random");
    }
}

TEST_P(CompressorRoundTrip, SparseRandomBytes)
{
    // Lines with a few random bytes poked into zeros: stresses the
    // single-one / consecutive-ones plane codes in BPC.
    Rng rng(0xbeef);
    for (int iter = 0; iter < 100; ++iter) {
        Line line{};
        unsigned pokes = 1 + unsigned(rng.below(6));
        for (unsigned p = 0; p < pokes; ++p)
            line[rng.below(kLineBytes)] = uint8_t(rng.next());
        expectRoundTrip(*codec_, line, "sparse");
    }
}

TEST_P(CompressorRoundTrip, BackToBackStreams)
{
    // Two lines encoded into one stream decode in order.
    Line a, b;
    generateLine(DataClass::kDeltaInt, 1, a);
    generateLine(DataClass::kPointer, 2, b);
    BitWriter w;
    codec_->compress(a, w);
    codec_->compress(b, w);
    BitReader r(w.bytes().data(), w.bitSize());
    Line out;
    ASSERT_TRUE(codec_->decompress(r, out));
    EXPECT_EQ(a, out);
    ASSERT_TRUE(codec_->decompress(r, out));
    EXPECT_EQ(b, out);
}

TEST_P(CompressorRoundTrip, CompressedBitsMatchesStream)
{
    // The size path must agree with the stream on every input, and
    // compress() must report what it appended to a stream that does
    // not start on a byte boundary.
    for (const Line &line : codecTestLines()) {
        BitWriter w;
        w.put(0b10110, 5);
        size_t bits = codec_->compress(line, w);
        ASSERT_EQ(bits, w.bitSize() - 5);
        ASSERT_EQ(codec_->compressedBits(line), bits);
        ASSERT_EQ(codec_->compressedBytes(line), (bits + 7) / 8);
    }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, CompressorRoundTrip,
                         ::testing::Values("bpc", "bpc-xform", "bdi",
                                           "fpc", "cpack", "lz"),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (auto &ch : n)
                                 if (ch == '-')
                                     ch = '_';
                             return n;
                         });

// ---------------------------------------------------------------------
// Algorithm-specific expectations
// ---------------------------------------------------------------------

TEST(Bpc, ZeroLineIsTiny)
{
    BpcCompressor bpc;
    Line line{};
    EXPECT_LE(bpc.compressedBytes(line), 2u);
}

TEST(Bpc, SmoothSequenceCompressesHard)
{
    // words = 100, 101, 102, ... : constant delta of 1.
    Line line;
    for (size_t i = 0; i < 16; ++i)
        setLineWord32(line, i, uint32_t(100 + i));
    BpcCompressor bpc;
    EXPECT_LE(bpc.compressedBytes(line), 8u);
}

TEST(Bpc, AdaptiveModeNeverWorseThanTransform)
{
    BpcCompressor adaptive(true);
    Rng rng(5);
    for (int iter = 0; iter < 200; ++iter) {
        Line line;
        DataClass cls = DataClass(rng.below(kNumDataClasses));
        generateLine(cls, rng.next(), line);
        EXPECT_LE(adaptive.compressedBits(line),
                  adaptive.transformedBits(line));
    }
}

TEST(Bpc, SizeQueriesMatchAdaptiveChoice)
{
    // transformedBits and directBits each count the mode bit, so the
    // adaptive size is the smaller of the two, and the stream's mode
    // bit names the winner (transformed on a tie).
    BpcCompressor adaptive(true), xform(false);
    for (const Line &line : codecTestLines()) {
        size_t t = adaptive.transformedBits(line);
        size_t d = adaptive.directBits(line);
        ASSERT_EQ(adaptive.compressedBits(line), std::min(t, d));
        ASSERT_EQ(xform.compressedBits(line), t);
        ASSERT_EQ(xform.transformedBits(line), t);
        BitWriter w;
        adaptive.compress(line, w);
        BitReader r(w.bytes().data(), w.bitSize());
        ASSERT_EQ(r.get(1), d < t ? 1u : 0u);
    }
}

TEST(Bpc, AdaptiveModeHelpsSomewhere)
{
    // The Compresso extension must win on some inputs (the paper
    // reports 13% average savings from it).
    BpcCompressor bpc;
    Rng rng(6);
    int wins = 0;
    for (int iter = 0; iter < 300; ++iter) {
        Line line;
        DataClass cls = DataClass(rng.below(kNumDataClasses));
        generateLine(cls, rng.next(), line);
        wins += bpc.directBits(line) < bpc.transformedBits(line);
    }
    EXPECT_GT(wins, 0);
}

TEST(Bpc, IncompressibleStaysBounded)
{
    // Worst case must stay within the 64 B bin + small overhead so the
    // top size bin (stored raw) always applies.
    BpcCompressor bpc;
    Rng rng(8);
    for (int iter = 0; iter < 50; ++iter) {
        Line line;
        for (size_t i = 0; i < 8; ++i)
            setLineWord64(line, i, rng.next());
        EXPECT_LE(bpc.compressedBytes(line), 72u);
    }
}

TEST(Bdi, RepeatedValueIsEightBytesPlusHeader)
{
    Line line;
    for (size_t i = 0; i < 8; ++i)
        setLineWord64(line, i, 0x1234567812345678ULL);
    BdiCompressor bdi;
    EXPECT_LE(bdi.compressedBytes(line), 10u);
}

TEST(Bdi, PointerLineUsesBase8)
{
    Line line;
    generateLine(DataClass::kPointer, 3, line);
    BdiCompressor bdi;
    // b8d4: 8 + 8 + 8*4 = 44ish bytes at most.
    EXPECT_LE(bdi.compressedBytes(line), 46u);
}

TEST(Bdi, RandomIsStoredRaw)
{
    Line line;
    Rng rng(10);
    for (size_t i = 0; i < 8; ++i)
        setLineWord64(line, i, rng.next());
    BdiCompressor bdi;
    size_t bytes = bdi.compressedBytes(line);
    EXPECT_GE(bytes, kLineBytes);
    EXPECT_LE(bytes, kLineBytes + 1);
}

TEST(Fpc, ZeroRunsAggregate)
{
    Line line{};
    FpcCompressor fpc;
    // 16 zero words collapse into two 6-bit run symbols.
    EXPECT_LE(fpc.compressedBytes(line), 2u);
}

TEST(Fpc, SmallIntsUseShortCodes)
{
    Line line;
    for (size_t i = 0; i < 16; ++i)
        setLineWord32(line, i, uint32_t(i % 7));
    FpcCompressor fpc;
    EXPECT_LE(fpc.compressedBytes(line), 16u);
}

TEST(Cpack, RepeatedWordsHitDictionary)
{
    Line line;
    for (size_t i = 0; i < 16; ++i)
        setLineWord32(line, i, 0xdeadbeef);
    CpackCompressor cpack;
    // First word uncompressed (34 b), then 15 full matches (6 b each).
    EXPECT_LE(cpack.compressedBytes(line), 18u);
}

TEST(Cpack, LowByteVariantsPartialMatch)
{
    Line line = makeLine({0xaabbcc00, 0xaabbcc01, 0xaabbcc02, 0xaabbcc03,
                          0xaabbcc04, 0xaabbcc05, 0xaabbcc06, 0xaabbcc07,
                          0xaabbcc08, 0xaabbcc09, 0xaabbcc0a, 0xaabbcc0b,
                          0xaabbcc0c, 0xaabbcc0d, 0xaabbcc0e, 0xaabbcc0f});
    CpackCompressor cpack;
    EXPECT_LT(cpack.compressedBytes(line), 40u);
}

TEST(Lz, RepeatedPatternCompressesHard)
{
    LzCompressor lz;
    Line line;
    for (size_t i = 0; i < kLineBytes; ++i)
        line[i] = uint8_t("abcd"[i % 4]);
    // One literal run + overlapping matches cover the rest.
    EXPECT_LE(lz.compressedBytes(line), 12u);
}

TEST(Lz, HighestRatioOnTextAmongAll)
{
    // Sec. II-A: "LZ results in the highest compression" on
    // dictionary-friendly data.
    Line line;
    generateLine(DataClass::kText, 3, line);
    LzCompressor lz;
    size_t lz_bytes = lz.compressedBytes(line);
    for (const char *other : {"bdi", "fpc", "cpack"}) {
        auto codec = makeCompressor(other);
        EXPECT_LE(lz_bytes, codec->compressedBytes(line) + 8) << other;
    }
}

TEST(Lz, MatchSearchOpsAreExpensive)
{
    // ...and why it is unattractive in a memory controller: the
    // matcher does hundreds of byte comparisons per 64 B line.
    LzCompressor lz;
    Line line;
    generateLine(DataClass::kText, 4, line);
    EXPECT_GT(lz.matchSearchOps(line), 500u);
}

namespace {

/**
 * Reference LZ encoder with a byte-serial matcher, the ground truth for
 * the position-mask matcher of src/compress/lz.cpp. At each position it
 * tries every earlier start, farthest first, keeps a strictly longer
 * match only, and counts one comparison per matching byte plus one per
 * start. Returns that count for the greedy parse it writes to @p out.
 */
size_t
referenceLzParse(const Line &line, BitWriter &out)
{
    constexpr unsigned kMinMatch = 3, kMaxMatch = 34, kMaxLiteral = 8;
    size_t ops = 0;
    size_t pos = 0;
    size_t lit_start = 0;
    auto flushLiterals = [&](size_t end) {
        while (lit_start < end) {
            size_t n = std::min<size_t>(kMaxLiteral, end - lit_start);
            out.put(0, 1);
            out.put(uint64_t(n - 1), 3);
            for (size_t i = 0; i < n; ++i)
                out.put(line[lit_start + i], 8);
            lit_start += n;
        }
    };
    while (pos < kLineBytes) {
        unsigned best = 0, dist = 0;
        for (size_t start = 0; start < pos; ++start) {
            unsigned len = 0;
            while (pos + len < kLineBytes && len < kMaxMatch &&
                   line[start + len] == line[pos + len]) {
                ++len;
                ++ops;
            }
            ++ops; // the failing (or capping) comparison
            if (len > best) {
                best = len;
                dist = unsigned(pos - start);
            }
        }
        if (best >= kMinMatch) {
            flushLiterals(pos);
            out.put(1, 1);
            out.put(dist, 6);
            out.put(best - kMinMatch, 5);
            pos += best;
            lit_start = pos;
        } else {
            ++pos;
        }
    }
    flushLiterals(kLineBytes);
    return ops;
}

/** Lines that stress the matcher's edges, plus codecTestLines(). */
std::vector<Line>
lzParseTestLines()
{
    std::vector<Line> lines = codecTestLines();
    Line line;
    // Bytes 0..63 all distinct: no byte starts a match by accident.
    auto distinct = [&] {
        for (size_t i = 0; i < kLineBytes; ++i)
            line[i] = uint8_t(0x80 + i);
    };
    // Period-k patterns, of distinct and of random bytes.
    Rng rng(0x6c7a);
    for (size_t k = 1; k < kLineBytes; ++k) {
        for (size_t i = 0; i < kLineBytes; ++i)
            line[i] = uint8_t(i % k);
        lines.push_back(line);
        for (size_t i = 0; i < kLineBytes; ++i)
            line[i] = i < k ? uint8_t(rng.below(4)) : line[i - k];
        lines.push_back(line);
    }
    // Equal-length matches at several distances: "abcd" at 0, 10, 20
    // and 30, each followed by a different byte, then "abcd" again.
    for (size_t tail = 34; tail < 60; ++tail) {
        distinct();
        for (size_t at : {size_t(0), size_t(10), size_t(20), size_t(30), tail})
            for (size_t j = 0; j < 4; ++j)
                line[at + j] = uint8_t('a' + j);
        lines.push_back(line);
    }
    // Matches that reach the 34-byte cap, with and without overlap.
    for (size_t len = 30; len <= 40; ++len) {
        distinct();
        for (size_t i = 64 - len; i < kLineBytes; ++i)
            line[i] = line[i - (64 - len)];
        lines.push_back(line);
        line.fill(0x5a);
        line[len] = 0;
        lines.push_back(line);
    }
    // Matches that end exactly at byte 63, 1 to 13 bytes long.
    for (size_t len = 1; len <= 13; ++len) {
        distinct();
        for (size_t i = 0; i < len; ++i)
            line[64 - len + i] = line[7 + i];
        lines.push_back(line);
    }
    // Lines that differ only in byte 63.
    for (const Line &base : std::vector<Line>(lines.end() - 40, lines.end())) {
        line = base;
        for (size_t from : {size_t(0), size_t(31), size_t(61), size_t(62)}) {
            line[63] = line[from];
            lines.push_back(line);
            line[63] = uint8_t(line[from] + 1);
            lines.push_back(line);
        }
    }
    // Random lines over alphabets of 2..4 bytes: many candidate starts.
    for (int i = 0; i < 600; ++i) {
        uint64_t symbols = 2 + uint64_t(i % 3);
        for (auto &b : line)
            b = uint8_t(rng.below(symbols));
        lines.push_back(line);
    }
    return lines;
}

} // namespace

TEST(Lz, FastParseMatchesReference)
{
    LzCompressor lz;
    std::vector<Line> lines = lzParseTestLines();
    for (size_t i = 0; i < lines.size(); ++i) {
        BitWriter want, got;
        size_t want_ops = referenceLzParse(lines[i], want);
        ASSERT_EQ(lz.compress(lines[i], got), want.bitSize()) << "line " << i;
        ASSERT_EQ(got.bytes(), want.bytes()) << "line " << i;
        ASSERT_EQ(lz.matchSearchOps(lines[i]), want_ops) << "line " << i;
        expectRoundTrip(lz, lines[i], "LZ parse test line");
    }
}

TEST(Factory, KnownNames)
{
    for (const auto &name : compressorNames()) {
        auto c = makeCompressor(name);
        ASSERT_NE(c, nullptr) << name;
        EXPECT_EQ(c->name(), name);
    }
    EXPECT_EQ(makeCompressor("nope"), nullptr);
}

TEST(ZeroLine, Detector)
{
    Line line{};
    EXPECT_TRUE(isZeroLine(line));
    line[63] = 1;
    EXPECT_FALSE(isZeroLine(line));
}
