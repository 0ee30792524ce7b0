/**
 * @file
 * Tests for the RMC baseline controller (subpage packing with
 * hysteresis, OS-aware overflow).
 */

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "core/pressure_hooks.h"
#include "core/rmc_controller.h"
#include "workloads/datagen.h"

using namespace compresso;

namespace {

RmcConfig
baseConfig()
{
    RmcConfig cfg;
    cfg.installed_bytes = uint64_t(64) << 20;
    cfg.bst.size_bytes = 16 * 1024;
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
writeLine(RmcController &mc, Addr a, const Line &d)
{
    McTrace tr;
    mc.writebackLine(a, d, tr);
}

Line
readLine(RmcController &mc, Addr a)
{
    Line d;
    McTrace tr;
    mc.fillLine(a, d, tr);
    return d;
}

/** Denies every admission and records the classes asked. */
class DenyAll : public PressureListener
{
  public:
    bool onMachineOom(PageNum) override { return false; }
    bool
    admitOp(PressureOp op, uint64_t) override
    {
        asked.push_back(op);
        return false;
    }
    void onOpCost(PressureOp, uint64_t) override {}

    std::vector<PressureOp> asked;
};

unsigned
writeOps(const McTrace &tr)
{
    unsigned n = 0;
    for (const auto &op : tr.ops)
        n += op.write;
    return n;
}

} // namespace

TEST(Rmc, UntouchedReadsZero)
{
    RmcController mc(baseConfig());
    EXPECT_TRUE(isZeroLine(readLine(mc, addrOf(0, 0))));
}

TEST(Rmc, RoundTripEveryDataClass)
{
    RmcController mc(baseConfig());
    for (size_t c = 0; c < kNumDataClasses; ++c) {
        Line in = classLine(DataClass(c), 3 + c);
        writeLine(mc, addrOf(1, unsigned(c)), in);
        EXPECT_EQ(readLine(mc, addrOf(1, unsigned(c))), in)
            << dataClassName(DataClass(c));
    }
}

TEST(Rmc, HysteresisAbsorbsSmallGrowth)
{
    RmcController mc(baseConfig());
    // Fill one subpage with compressible lines.
    for (unsigned l = 0; l < RmcController::kLinesPerSubpage; ++l)
        writeLine(mc, addrOf(2, l), classLine(DataClass::kDeltaInt, l));
    uint64_t shifts = mc.stats().get("subpage_shifts");
    // One line grows a bin: the 64 B hysteresis should absorb it.
    Line mid = classLine(DataClass::kFloat, 9);
    writeLine(mc, addrOf(2, 1), mid);
    EXPECT_GE(mc.stats().get("hysteresis_absorbs"), 1u);
    EXPECT_EQ(mc.stats().get("subpage_shifts"), shifts);
    EXPECT_EQ(readLine(mc, addrOf(2, 1)), mid);
}

TEST(Rmc, SubpageOverflowShiftsNeighbors)
{
    RmcConfig cfg = baseConfig();
    cfg.hysteresis_bytes = 0; // no slack: every growth shifts
    RmcController mc(cfg);
    for (unsigned l = 0; l < kLinesPerPage; ++l)
        writeLine(mc, addrOf(3, l), classLine(DataClass::kDeltaInt, l));
    Line big = classLine(DataClass::kRandom, 77);
    writeLine(mc, addrOf(3, 5), big);
    EXPECT_GE(mc.stats().get("subpage_shifts") +
                  mc.stats().get("page_faults"),
              1u);
    EXPECT_EQ(readLine(mc, addrOf(3, 5)), big);
    // Neighbors intact.
    EXPECT_EQ(readLine(mc, addrOf(3, 6)),
              classLine(DataClass::kDeltaInt, 6));
}

TEST(Rmc, PageOverflowIsAnOsFault)
{
    RmcController mc(baseConfig());
    for (unsigned l = 0; l < kLinesPerPage; ++l)
        writeLine(mc, addrOf(4, l), classLine(DataClass::kDeltaInt, l));
    // Flood with incompressible data until the allocation grows.
    Rng rng(5);
    Cycle stalls = 0;
    for (unsigned l = 0; l < kLinesPerPage; ++l) {
        McTrace tr;
        mc.writebackLine(addrOf(4, l),
                         classLine(DataClass::kRandom, rng.next()), tr);
        stalls += tr.stall_cycles;
    }
    EXPECT_GE(mc.stats().get("page_faults"), 1u);
    EXPECT_GT(stalls, 0u);
}

TEST(Rmc, ChurnIntegrity)
{
    RmcController mc(baseConfig());
    Rng rng(31);
    std::unordered_map<Addr, Line> image;
    for (int iter = 0; iter < 3000; ++iter) {
        Addr a = addrOf(10 + rng.below(5),
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

TEST(Rmc, NoRepackingEver)
{
    RmcController mc(baseConfig());
    for (unsigned l = 0; l < kLinesPerPage; ++l)
        writeLine(mc, addrOf(20, l), classLine(DataClass::kRandom, l));
    uint64_t big = mc.mpaDataBytes();
    for (unsigned l = 0; l < kLinesPerPage; ++l)
        writeLine(mc, addrOf(20, l), Line{});
    EXPECT_EQ(mc.mpaDataBytes(), big);
}

TEST(Rmc, FreePageReleasesChunks)
{
    RmcController mc(baseConfig());
    for (unsigned l = 0; l < 8; ++l)
        writeLine(mc, addrOf(30, l), classLine(DataClass::kRandom, l));
    EXPECT_GT(mc.mpaDataBytes(), 0u);
    mc.freePage(30);
    EXPECT_EQ(mc.mpaDataBytes(), 0u);
}

TEST(Rmc, CompressionBetweenUncompressedAndCompresso)
{
    // Tab. V positioning: LinePack-style packing but with per-subpage
    // hysteresis overhead and no repacking.
    RmcController mc(baseConfig());
    for (PageNum p = 0; p < 8; ++p)
        for (unsigned l = 0; l < kLinesPerPage; ++l)
            writeLine(mc, addrOf(p, l),
                      classLine(DataClass::kDeltaInt, p * 64 + l));
    EXPECT_GT(mc.compressionRatio(), 1.5);
    EXPECT_LT(mc.compressionRatio(), 8.0);
}

TEST(Rmc, FirstLayoutIsNotARelocation)
{
    // A fresh page's first layout moves nothing, so a listener that
    // denies every relocation must not turn it into a raw 4 KB page.
    RmcController mc(baseConfig());
    DenyAll deny;
    mc.attachPressureListener(&deny);
    const Line in = classLine(DataClass::kConstant, 3);
    McTrace tr;
    mc.writebackLine(addrOf(5, 0), in, tr);
    mc.attachPressureListener(nullptr);

    // The entry fetch and five 64 B writes of the 278 B layout, not
    // the 64 writes of a raw page.
    EXPECT_EQ(mc.pageCompressedBytes(5), 512u);
    EXPECT_EQ(tr.ops.size(), 6u);
    EXPECT_EQ(writeOps(tr), 5u);
    for (PressureOp op : deny.asked)
        EXPECT_NE(op, PressureOp::kRelocation);
    EXPECT_EQ(mc.stats().get("overflow_escalations"), 0u);
    EXPECT_EQ(readLine(mc, addrOf(5, 0)), in);
}
