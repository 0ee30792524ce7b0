/**
 * @file
 * Unit + property tests for the line compressors (BPC, BDI, FPC,
 * C-PACK): exact round-trips on every data class and on adversarial
 * random data, plus the algorithm-specific size expectations the
 * compression-ratio experiments rely on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <set>
#include <utility>
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

/** BDI's (base, delta) shapes as {base bytes, delta bytes, selector},
 *  in payload order, the order the first-fit rule breaks ties in. */
constexpr unsigned kBdiShapes[][3] = {
    {8, 1, 0b0010}, {4, 1, 0b0101}, {8, 2, 0b0011},
    {2, 1, 0b0111}, {4, 2, 0b0110}, {8, 4, 0b0100},
};

/** A line's BDI encoding, found by encoding it under each shape's
 *  rule: the smallest payload in bits (selector excluded), its
 *  selector, and which of kBdiShapes fit. */
struct BdiRef
{
    size_t bits;
    unsigned sel;
    bool fits[std::size(kBdiShapes)];
};

BdiRef
bdiReference(const Line &l)
{
    BdiRef ref{kLineBytes * 8, 0b1111, {}};
    auto sext = [](uint64_t x, unsigned nb) {
        unsigned sh = 64 - nb * 8;
        return int64_t(x << sh) >> sh;
    };
    auto fitsIn = [](int64_t x, unsigned nb) {
        int64_t lim = int64_t(1) << (nb * 8 - 1);
        return x >= -lim && x < lim;
    };
    for (size_t s = 0; s < std::size(kBdiShapes); ++s) {
        auto [b, d, sel] = kBdiShapes[s];
        size_t n = kLineBytes / b;
        bool fits = true, have_base = false;
        uint64_t base = 0;
        for (size_t e = 0; e < n && fits; ++e) {
            uint64_t v = 0;
            std::memcpy(&v, l.data() + e * b, b);
            if (fitsIn(sext(v, b), d))
                continue;
            if (!have_base) {
                base = v;
                have_base = true;
            }
            fits = fitsIn(sext(v - base, b), d);
        }
        ref.fits[s] = fits;
        size_t bits = b * 8 + n + n * d * 8;
        if (fits && bits < ref.bits) {
            ref.bits = bits;
            ref.sel = sel;
        }
    }
    bool repeated = true;
    for (size_t w = 1; w < 8; ++w)
        repeated &= lineWord64(l, w) == lineWord64(l, 0);
    if (repeated) {
        ref.bits = 64;
        ref.sel = 0b0001;
    }
    if (isZeroLine(l)) {
        ref.bits = 0;
        ref.sel = 0b0000;
    }
    return ref;
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

namespace {

/**
 * Reference BPC sizer, the ground truth for the lane-parallel sizer of
 * src/compress/bpc.cpp: each mode gets its own 32-bit transpose of two
 * 16 x 16 matrices side by side and its planes are walked symbol by
 * symbol into a counting sink, as the codec did before it sized both
 * modes from one transpose. Also tallies which plane cases its inputs
 * reach, so the differential test can check its own coverage.
 */
namespace reference_bpc {

struct BitCounter
{
    size_t bits = 0;
    void put(uint64_t, unsigned nbits) { bits += nbits; }
};

struct Planes
{
    uint32_t dbp[33];
    uint32_t dbx[33];
    unsigned count;
    unsigned width;
};

/** Lines whose planes reach each edge case of the sizer. */
struct Coverage
{
    size_t ones[2] = {};       // all-ones DBX plane: xf, dp
    size_t top_single[2] = {}; // single one at bit 14 (xf), 15 (dp)
    size_t top_pair[2] = {};   // 3 << 13 (xf), 3 << 14 (dp)
    size_t run_15_16[2] = {};  // zero DBX at planes 15 and 16
    size_t run_31_32 = 0;      // zero DBX at xf planes 31 and 32
    size_t sign[4] = {};       // sign plane 0, all-ones, single, pair
};

template <unsigned S, uint32_t M>
void
transposeRound(uint32_t a[16])
{
    for (unsigned k = 0; k < 16; k += 2 * S) {
        for (unsigned i = k; i < k + S; ++i) {
            uint32_t t = ((a[i] >> S) ^ a[i + S]) & M;
            a[i] ^= t << S;
            a[i + S] ^= t;
        }
    }
}

void
toPlanes(uint32_t rows[16], uint32_t planes[32])
{
    transposeRound<8, 0x00ff00ffu>(rows);
    transposeRound<4, 0x0f0f0f0fu>(rows);
    transposeRound<2, 0x33333333u>(rows);
    transposeRound<1, 0x55555555u>(rows);
    for (unsigned k = 0; k < 16; ++k) {
        planes[k] = rows[k] & 0xffffu;
        planes[k + 16] = rows[k] >> 16;
    }
}

void
xorChain(Planes &p)
{
    for (unsigned k = 0; k + 1 < p.count; ++k)
        p.dbx[k] = p.dbp[k] ^ p.dbp[k + 1];
    p.dbx[p.count - 1] = p.dbp[p.count - 1];
}

void
encodeBase(uint32_t base, BitCounter &out)
{
    int32_t s = int32_t(base);
    if (base == 0) {
        out.put(0b000, 3);
    } else if (s >= -8 && s < 8) {
        out.put(0b001, 3);
        out.put(uint32_t(s) & 0xf, 4);
    } else if (s >= -128 && s < 128) {
        out.put(0b010, 3);
        out.put(uint32_t(s) & 0xff, 8);
    } else if (s >= -32768 && s < 32768) {
        out.put(0b011, 3);
        out.put(uint32_t(s) & 0xffff, 16);
    } else {
        out.put(1, 1);
        out.put(base, 32);
    }
}

bool
isTwoConsecutiveOnes(uint32_t v, unsigned &pos)
{
    if (v == 0 || (v & (v - 1)) == 0)
        return false;
    unsigned p = unsigned(__builtin_ctz(v));
    if (v == (3u << p)) {
        pos = p;
        return true;
    }
    return false;
}

void
encodePlanes(const Planes &p, BitCounter &out)
{
    uint32_t ones = (1u << p.width) - 1;
    int k = int(p.count) - 1;
    while (k >= 0) {
        if (p.dbx[k] == 0) {
            unsigned run = 1;
            while (int(k) - int(run) >= 0 && p.dbx[k - run] == 0 &&
                   run < 33) {
                ++run;
            }
            if (run >= 2) {
                out.put(0b01, 2);
                out.put(run - 2, 5);
            } else {
                out.put(0b001, 3);
            }
            k -= int(run);
            continue;
        }
        unsigned pos = 0;
        if (p.dbx[k] == ones) {
            out.put(0b00000, 5);
        } else if (p.dbp[k] == 0) {
            out.put(0b00001, 5);
        } else if (isTwoConsecutiveOnes(p.dbx[k], pos)) {
            out.put(0b00010, 5);
            out.put(pos, 4);
        } else if ((p.dbx[k] & (p.dbx[k] - 1)) == 0) {
            out.put(0b00011, 5);
            out.put(unsigned(__builtin_ctz(p.dbx[k])), 4);
        } else {
            out.put(1, 1);
            out.put(p.dbx[k], p.width);
        }
        --k;
    }
}

void
tally(const Planes &p, size_t mode, Coverage &cov)
{
    uint32_t top = 1u << (p.width - 1);
    bool ones = false, single = false, pair = false;
    for (unsigned k = 0; k < 32; ++k) {
        ones |= p.dbx[k] == (1u << p.width) - 1;
        single |= p.dbx[k] == top;
        pair |= p.dbx[k] == (3u * top >> 1);
    }
    cov.ones[mode] += ones;
    cov.top_single[mode] += single;
    cov.top_pair[mode] += pair;
    cov.run_15_16[mode] += p.dbx[15] == 0 && p.dbx[16] == 0;
}

/** Sizes of the transformed and the direct stream, mode bit included. */
std::pair<size_t, size_t>
modeBits(const Line &line, Coverage &cov)
{
    uint32_t words[16];
    for (size_t i = 0; i < 16; ++i)
        words[i] = lineWord32(line, i);

    Planes xf;
    uint32_t rows[16] = {};
    uint32_t sign = 0;
    for (unsigned j = 0; j < 15; ++j) {
        rows[j] = words[j + 1] - words[j];
        sign |= uint32_t(words[j + 1] < words[j]) << j;
    }
    xf.count = 33;
    xf.width = 15;
    toPlanes(rows, xf.dbp);
    xf.dbp[32] = sign;
    xorChain(xf);
    BitCounter xc;
    xc.put(0, 1);
    encodeBase(words[0], xc);
    encodePlanes(xf, xc);

    Planes dp;
    std::copy(words, words + 16, rows);
    dp.count = 32;
    dp.width = 16;
    toPlanes(rows, dp.dbp);
    xorChain(dp);
    BitCounter dc;
    dc.put(1, 1);
    encodePlanes(dp, dc);

    tally(xf, 0, cov);
    tally(dp, 1, cov);
    cov.run_31_32 += xf.dbx[31] == 0 && sign == 0;
    unsigned rest = sign & (sign - 1);
    cov.sign[0] += sign == 0;
    cov.sign[1] += sign == 0x7fff;
    cov.sign[2] += sign != 0 && rest == 0;
    cov.sign[3] += sign != 0 && rest != 0 && rest == (sign & -sign) << 1;
    return {xc.bits, dc.bits};
}

} // namespace reference_bpc

/** A plane for the BPC sizer test, given the plane above it: mostly a
 *  DBX of 0, all-ones, a single one or a pair (at the top of the
 *  @p width-bit plane, too), else DBP 0 or random bits. */
uint32_t
drawPlane(Rng &rng, uint32_t above, unsigned width)
{
    uint32_t ones = (1u << width) - 1;
    uint32_t dbx;
    switch (rng.below(9)) {
      case 0: case 1: case 2: dbx = 0; break;
      case 3: dbx = ones; break;
      case 4: dbx = rng.chance(0.5) ? 1u << (width - 1)
                                    : 1u << rng.below(width); break;
      case 5: dbx = rng.chance(0.5) ? 3u << (width - 2)
                                    : 3u << rng.below(width - 1); break;
      case 6: return 0;
      case 7: return above;
      default: dbx = uint32_t(rng.next()) & ones; break;
    }
    return dbx ^ above;
}

/**
 * Seeded lines aimed at the sizer's edge cases: direct planes drawn
 * plane by plane, transformed delta planes drawn the same way under
 * a base, and words built from steps that make the sign plane zero,
 * all-ones, a single one or a pair.
 */
std::vector<Line>
bpcSizerTestLines(size_t count)
{
    std::vector<Line> lines = codecTestLines();
    Rng rng(0xb9c5);
    Line line;
    for (size_t i = 0; i < count; ++i) {
        uint32_t words[16];
        switch (i % 3) {
          case 0: { // direct planes, top down
            uint32_t planes[32], above = 0;
            for (int k = 31; k >= 0; --k)
                above = planes[k] = drawPlane(rng, above, 16);
            std::fill(words, words + 16, 0);
            for (unsigned k = 0; k < 32; ++k)
                for (unsigned j = 0; j < 16; ++j)
                    words[j] |= (planes[k] >> j & 1) << k;
            break;
          }
          case 1: { // transformed delta planes under a base
            uint32_t planes[32], above = 0;
            for (int k = 31; k >= 0; --k)
                above = planes[k] = drawPlane(rng, above, 15);
            uint32_t bases[] = {0, 5, 0x7fffffffu, 0x80000000u,
                                0xfffffff0u, uint32_t(rng.next())};
            words[0] = bases[rng.below(6)];
            for (unsigned j = 0; j < 15; ++j) {
                uint32_t d = 0;
                for (unsigned k = 0; k < 32; ++k)
                    d |= (planes[k] >> j & 1) << k;
                words[j + 1] = words[j] + d;
            }
            break;
          }
          default: { // steps: mostly small, some down, some random
            uint32_t downs[] = {0, 0x7fffu, 1u << rng.below(15),
                                3u << rng.below(14),
                                uint32_t(rng.below(1 << 15))};
            uint32_t down = downs[rng.below(5)];
            words[0] = rng.chance(0.5) ? 0x80000000u : uint32_t(rng.next());
            for (unsigned j = 0; j < 15; ++j) {
                uint32_t step = uint32_t(rng.below(4)) << rng.below(20);
                if (rng.chance(0.1))
                    step = uint32_t(rng.next());
                words[j + 1] = down >> j & 1 ? words[j] - 1 - step
                                             : words[j] + step;
            }
            break;
          }
        }
        for (unsigned j = 0; j < 16; ++j)
            setLineWord32(line, j, words[j]);
        lines.push_back(line);
    }
    return lines;
}

} // namespace

TEST(Bpc, LaneSizerMatchesSymbolWalk)
{
    BpcCompressor bpc;
    reference_bpc::Coverage cov;
    std::vector<Line> lines = bpcSizerTestLines(200000);
    for (size_t i = 0; i < lines.size(); ++i) {
        auto [xf, dp] = reference_bpc::modeBits(lines[i], cov);
        ASSERT_EQ(bpc.transformedBits(lines[i]), xf) << "line " << i;
        ASSERT_EQ(bpc.directBits(lines[i]), dp) << "line " << i;
    }
    // Every edge case is reached by thousands of lines.
    for (size_t mode = 0; mode < 2; ++mode) {
        EXPECT_GT(cov.ones[mode], 1000u) << mode;
        EXPECT_GT(cov.top_single[mode], 1000u) << mode;
        EXPECT_GT(cov.top_pair[mode], 1000u) << mode;
        EXPECT_GT(cov.run_15_16[mode], 1000u) << mode;
    }
    EXPECT_GT(cov.run_31_32, 1000u);
    for (size_t sign : cov.sign)
        EXPECT_GT(sign, 1000u);
}

TEST(Bpc, SizerTestLinesRoundTripInBothModes)
{
    // The sizer test's lines through the encoder and the decoder, with
    // and without the adaptive mode: each stream is as long as the
    // sizer says, its mode bit names the smaller mode (the transformed
    // one on a tie), and it decodes to the line.
    BpcCompressor adaptive, xform(false);
    std::vector<Line> lines = bpcSizerTestLines(200000);
    size_t direct_wins = 0, ties = 0;
    for (size_t i = 0; i < lines.size(); ++i) {
        const Line &line = lines[i];
        size_t xf = xform.transformedBits(line);
        size_t dp = adaptive.directBits(line);
        bool direct = dp < xf;
        direct_wins += direct;
        ties += dp == xf;
        for (const BpcCompressor *bpc : {&adaptive, &xform}) {
            bool is_adaptive = bpc == &adaptive;
            size_t want = is_adaptive ? adaptive.compressedBits(line)
                                      : xform.transformedBits(line);
            BitWriter w;
            ASSERT_EQ(bpc->compress(line, w), want)
                << bpc->name() << " line " << i;
            ASSERT_EQ(w.bitSize(), want) << bpc->name() << " line " << i;
            ASSERT_EQ(want, is_adaptive ? std::min(xf, dp) : xf)
                << bpc->name() << " line " << i;
            ASSERT_EQ(w.bytes()[0] >> 7, is_adaptive && direct)
                << bpc->name() << " line " << i;
            BitReader r(w.bytes().data(), w.bitSize());
            Line out{};
            ASSERT_TRUE(bpc->decompress(r, out))
                << bpc->name() << " line " << i;
            ASSERT_EQ(r.pos(), want) << bpc->name() << " line " << i;
            ASSERT_EQ(out, line) << bpc->name() << " line " << i;
        }
    }
    // Each mode wins on many lines, and some lines tie.
    EXPECT_GT(direct_wins, 1000u);
    EXPECT_GT(lines.size() - direct_wins, 1000u);
    EXPECT_GT(ties, 100u);
}

TEST(Bdi, FirstFitIsSmallestShape)
{
    // The smallest payload over every (base, delta) shape that fits,
    // found by encoding the line under each shape's rule, else raw.
    BdiCompressor bdi;
    std::vector<Line> lines = codecTestLines();
    Rng rng(0xbd1);
    Line line;
    for (int i = 0; i < 20000; ++i) {
        // Narrow values around one random base, some near zero.
        unsigned bytes = 2u << rng.below(3);
        uint64_t base = rng.next();
        unsigned spread = 1 + unsigned(rng.below(40));
        for (size_t off = 0; off < kLineBytes; off += bytes) {
            uint64_t v = (rng.chance(0.2) ? 0 : base) +
                         (rng.next() >> (64 - spread));
            std::memcpy(line.data() + off, &v, bytes);
        }
        lines.push_back(line);
    }
    for (size_t i = 0; i < lines.size(); ++i)
        ASSERT_EQ(bdi.compressedBits(lines[i]), 4 + bdiReference(lines[i]).bits)
            << "line " << i;
}

TEST(Bdi, ShapeBoundaries)
{
    // For each shape, lines whose one edge element sits on the delta
    // range, or one past it, from the zero base and from the line base;
    // with the line base first or taken from a later element, and far
    // from zero or next to the signed limits, where base + delta wraps
    // at the element width.
    BdiCompressor bdi;
    std::set<unsigned> sels;
    auto check = [&](const Line &l) {
        BdiRef ref = bdiReference(l);
        EXPECT_EQ(bdi.compressedBits(l), 4 + ref.bits);
        BitWriter w;
        EXPECT_EQ(bdi.compress(l, w), 4 + ref.bits);
        unsigned sel = w.bytes()[0] >> 4;
        EXPECT_EQ(sel, ref.sel);
        sels.insert(sel);
        BitReader r(w.bytes().data(), w.bitSize());
        Line out{};
        EXPECT_TRUE(bdi.decompress(r, out));
        EXPECT_EQ(r.pos(), w.bitSize());
        EXPECT_EQ(out, l);
        return ref;
    };
    for (size_t s = 0; s < std::size(kBdiShapes); ++s) {
        auto [b, d, sel] = kBdiShapes[s];
        unsigned n = unsigned(kLineBytes / b);
        uint64_t smax = (uint64_t(1) << (8 * b - 1)) - 1; // signed max
        int64_t lo = -(int64_t(1) << (8 * d - 1));
        int64_t hi = (int64_t(1) << (8 * d - 1)) - 1;
        for (uint64_t x : {uint64_t(0x5a3c96e1f0d2b487), smax - 5, smax + 6}) {
            for (unsigned at : {0u, n - 2}) {
                for (bool from_base : {false, true}) {
                    for (int64_t edge : {lo, hi, lo - 1, hi + 1}) {
                        // Small values before the base, then the base
                        // x and values just above it, one replaced by
                        // the edge element.
                        Line l;
                        for (unsigned i = 0; i < n; ++i) {
                            uint64_t v = i < at ? i : x + (i - at);
                            if (i == at + 1)
                                v = from_base ? x + uint64_t(edge)
                                              : uint64_t(edge);
                            std::memcpy(l.data() + i * b, &v, b);
                        }
                        SCOPED_TRACE(::testing::Message()
                                     << "B" << b << "D" << d << " base "
                                     << std::hex << x << std::dec
                                     << " at " << at << " edge " << edge
                                     << (from_base ? " from base" : ""));
                        BdiRef ref = check(l);
                        bool in_range = edge == lo || edge == hi;
                        EXPECT_EQ(ref.fits[s], in_range);
                        // Far from zero, no smaller shape fits.
                        if (in_range && x == 0x5a3c96e1f0d2b487) {
                            EXPECT_EQ(ref.sel, sel);
                        }
                    }
                }
            }
        }
    }

    // B2D1 and B4D2 tie at 304 bits, and B2D1 comes first: 32-bit
    // words that differ in their low halves by up to 2^14, so no
    // one-byte delta fits them, while their 16-bit halves are near
    // zero or near 0x4000.
    Line tie;
    for (unsigned k = 0; k < 16; ++k)
        setLineWord32(tie, k, 0x40000000u + (k % 3 ? 0 : 0x4000u) + k);
    BdiRef ref = check(tie);
    EXPECT_EQ(ref.sel, 0b0111u);
    EXPECT_TRUE(ref.fits[4]); // B4D2

    Line zero{}, rep, raw;
    Rng rng(0xb0b);
    for (size_t i = 0; i < 8; ++i) {
        setLineWord64(rep, i, 0x0123456789abcdefULL);
        setLineWord64(raw, i, rng.next());
    }
    check(zero);
    check(rep);
    check(raw);
    EXPECT_EQ(sels, (std::set<unsigned>{0b0000, 0b0001, 0b0010, 0b0011,
                                        0b0100, 0b0101, 0b0110, 0b0111,
                                        0b1111}));
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
