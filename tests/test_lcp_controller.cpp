/**
 * @file
 * Tests for the OS-aware LCP baseline controller.
 */

#include <gtest/gtest.h>

#include "core/compresso_controller.h"
#include "core/lcp_controller.h"
#include "workloads/datagen.h"

using namespace compresso;

namespace {

LcpConfig
baseConfig(bool align = false)
{
    LcpConfig cfg;
    cfg.alignment_friendly = align;
    cfg.installed_bytes = uint64_t(64) << 20;
    cfg.mdcache.size_bytes = 16 * 1024;
    return cfg;
}

Line
classLine(DataClass c, uint64_t seed)
{
    Line l;
    generateLine(c, seed, l);
    return l;
}

Addr
addrOf(PageNum page, unsigned line)
{
    return Addr(page) * kPageBytes + Addr(line) * kLineBytes;
}

void
writeLine(LcpController &mc, Addr a, const Line &data)
{
    McTrace tr;
    mc.writebackLine(a, data, tr);
}

Line
readLine(LcpController &mc, Addr a, McTrace *out = nullptr)
{
    Line data;
    McTrace tr;
    mc.fillLine(a, data, tr);
    if (out)
        *out = tr;
    return data;
}

} // namespace

TEST(Lcp, UntouchedReadsZero)
{
    LcpController mc(baseConfig());
    EXPECT_TRUE(isZeroLine(readLine(mc, addrOf(1, 1))));
    EXPECT_EQ(mc.stats().get("zero_fills"), 1u);
}

TEST(Lcp, RoundTripEveryDataClass)
{
    LcpController mc(baseConfig());
    for (size_t c = 0; c < kNumDataClasses; ++c) {
        Line in = classLine(DataClass(c), 5 + c);
        writeLine(mc, addrOf(2, unsigned(c)), in);
        EXPECT_EQ(readLine(mc, addrOf(2, unsigned(c))), in)
            << dataClassName(DataClass(c));
    }
}

TEST(Lcp, ExceptionLinesStoredAndRead)
{
    LcpController mc(baseConfig(true));
    // Establish a small target with a compressible line...
    writeLine(mc, addrOf(3, 0), classLine(DataClass::kDeltaInt, 1));
    // ...then add incompressible lines that cannot fit the target.
    Line big = classLine(DataClass::kRandom, 2);
    writeLine(mc, addrOf(3, 1), big);
    EXPECT_GE(mc.stats().get("line_overflows"), 1u);
    EXPECT_EQ(readLine(mc, addrOf(3, 1)), big);
}

TEST(Lcp, PageOverflowRaisesPageFault)
{
    LcpConfig cfg = baseConfig(true);
    LcpController mc(cfg);
    // Small target page, then flood it with incompressible lines
    // until the exception region overflows.
    writeLine(mc, addrOf(4, 0), classLine(DataClass::kDeltaInt, 1));
    for (unsigned l = 1; l < kLinesPerPage; ++l)
        writeLine(mc, addrOf(4, l), classLine(DataClass::kRandom, l));
    EXPECT_GE(mc.stats().get("page_faults"), 1u);
    EXPECT_GT(mc.stats().get("page_fault_cycles"), 0u);
    // Everything still reads back.
    for (unsigned l = 1; l < kLinesPerPage; ++l)
        ASSERT_EQ(readLine(mc, addrOf(4, l)),
                  classLine(DataClass::kRandom, l));
}

TEST(Lcp, StallCyclesSurfaceInTrace)
{
    LcpController mc(baseConfig(true));
    writeLine(mc, addrOf(5, 0), classLine(DataClass::kDeltaInt, 1));
    Cycle total_stall = 0;
    for (unsigned l = 1; l < kLinesPerPage; ++l) {
        McTrace tr;
        mc.writebackLine(addrOf(5, l), classLine(DataClass::kRandom, l),
                         tr);
        total_stall += tr.stall_cycles;
    }
    // Every stall is one OS page fault's.
    EXPECT_GE(total_stall, MetadataFrontEnd::kOsFaultCycles);
    EXPECT_EQ(total_stall, mc.stats().get("page_faults") *
                               MetadataFrontEnd::kOsFaultCycles);
}

TEST(Lcp, SpeculativeParallelFlagOnFills)
{
    LcpController mc(baseConfig());
    writeLine(mc, addrOf(6, 0), classLine(DataClass::kSmallInt, 1));
    McTrace tr;
    readLine(mc, addrOf(6, 0), &tr);
    EXPECT_TRUE(tr.speculative_parallel);
}

TEST(Lcp, ZeroLineShortcut)
{
    LcpController mc(baseConfig());
    writeLine(mc, addrOf(7, 0), classLine(DataClass::kSmallInt, 1));
    writeLine(mc, addrOf(7, 1), Line{}); // zero line on a live page
    McTrace tr;
    Line d = readLine(mc, addrOf(7, 1), &tr);
    EXPECT_TRUE(isZeroLine(d));
    // No data device ops for the zero line.
    for (const auto &op : tr.ops)
        EXPECT_GE(op.addr, Addr(1) << 40);
}

TEST(Lcp, NoRepackingEver)
{
    LcpController mc(baseConfig());
    for (unsigned l = 0; l < kLinesPerPage; ++l)
        writeLine(mc, addrOf(8, l), classLine(DataClass::kRandom, l));
    uint64_t big = mc.mpaDataBytes();
    for (unsigned l = 0; l < kLinesPerPage; ++l)
        writeLine(mc, addrOf(8, l), Line{});
    // LCP never shrinks a page (Fig. 7's motivation).
    EXPECT_EQ(mc.mpaDataBytes(), big);
}

TEST(Lcp, LegacyTargetsSplitMoreThanAligned)
{
    LcpController legacy(baseConfig(false));
    LcpController aligned(baseConfig(true));
    Rng rng(9);
    for (PageNum p = 0; p < 8; ++p)
        for (unsigned l = 0; l < kLinesPerPage; ++l) {
            Line d = classLine(DataClass::kFloat, rng.next());
            writeLine(legacy, addrOf(p, l), d);
            writeLine(aligned, addrOf(p, l), d);
        }
    for (PageNum p = 0; p < 8; ++p)
        for (unsigned l = 0; l < kLinesPerPage; ++l) {
            readLine(legacy, addrOf(p, l));
            readLine(aligned, addrOf(p, l));
        }
    EXPECT_GT(legacy.stats().get("split_fill_lines"),
              aligned.stats().get("split_fill_lines"));
}

TEST(Lcp, ChurnIntegrity)
{
    LcpController mc(baseConfig());
    Rng rng(77);
    std::unordered_map<Addr, Line> image;
    for (int iter = 0; iter < 3000; ++iter) {
        Addr a = addrOf(10 + rng.below(6),
                        unsigned(rng.below(kLinesPerPage)));
        if (rng.chance(0.6)) {
            Line d = classLine(DataClass(rng.below(kNumDataClasses)),
                               rng.next());
            writeLine(mc, a, d);
            image[a] = d;
        } else {
            Line expect{};
            auto it = image.find(a);
            if (it != image.end())
                expect = it->second;
            ASSERT_EQ(readLine(mc, a), expect);
        }
    }
}

TEST(Lcp, FreePageReleasesEverything)
{
    LcpController mc(baseConfig());
    for (unsigned l = 0; l < 8; ++l)
        writeLine(mc, addrOf(20, l), classLine(DataClass::kRandom, l));
    EXPECT_GT(mc.mpaDataBytes(), 0u);
    mc.freePage(20);
    EXPECT_EQ(mc.mpaDataBytes(), 0u);
    EXPECT_TRUE(isZeroLine(readLine(mc, addrOf(20, 0))));
}

TEST(Lcp, CompressionWorseThanCompressoOnVariableData)
{
    // Sec. II-C: LCP-packing underperforms LinePack when line sizes
    // vary within a page. Checked end to end via both controllers on
    // identical data.
    LcpController lcp(baseConfig(false));
    CompressoConfig ccfg;
    ccfg.installed_bytes = uint64_t(64) << 20;
    CompressoController compresso(ccfg);
    Rng rng(31);
    for (PageNum p = 0; p < 16; ++p) {
        for (unsigned l = 0; l < kLinesPerPage; ++l) {
            DataClass c = rng.chance(0.5) ? DataClass::kDeltaInt
                                          : DataClass::kFloat;
            Line d = classLine(c, rng.next());
            writeLine(lcp, addrOf(p, l), d);
            McTrace tr;
            compresso.writebackLine(addrOf(p, l), d, tr);
        }
    }
    EXPECT_GE(lcp.compressionRatio(), 1.0);
    EXPECT_GT(compresso.compressionRatio(),
              lcp.compressionRatio() * 1.1);
}
