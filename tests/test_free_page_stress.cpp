/**
 * @file
 * freePage / balloon-release stress: every compressed controller must
 * survive repeated release-and-re-touch cycles — chunks fully
 * reclaimed, freed pages reading zero, re-touched pages holding new
 * data — with a clean invariant audit throughout. Also exercises the
 * full SimOs + BalloonDriver path the capacity evaluation uses.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/compresso_controller.h"
#include "core/lcp_controller.h"
#include "core/rmc_controller.h"
#include "os/balloon.h"
#include "os/sim_os.h"
#include "workloads/datagen.h"

using namespace compresso;

namespace {

constexpr uint64_t kArena = uint64_t(32) << 20;

std::unique_ptr<MemoryController>
makeController(const std::string &kind)
{
    if (kind == "compresso") {
        CompressoConfig cfg;
        cfg.installed_bytes = kArena;
        cfg.mdcache.size_bytes = 4 * 1024; // small: evictions + repacks
        return std::make_unique<CompressoController>(cfg);
    }
    if (kind == "lcp") {
        LcpConfig cfg;
        cfg.installed_bytes = kArena;
        return std::make_unique<LcpController>(cfg);
    }
    RmcConfig cfg;
    cfg.installed_bytes = kArena;
    return std::make_unique<RmcController>(cfg);
}

/** Replay a seeded mixed fill/writeback workload. */
void
storm(MemoryController &mc, unsigned pages, unsigned ops,
      uint64_t seed)
{
    Rng rng(seed);
    Line data;
    for (unsigned i = 0; i < ops; ++i) {
        Addr a = Addr(rng.below(pages)) * kPageBytes +
                 rng.below(kLinesPerPage) * kLineBytes;
        McTrace tr;
        if (rng.chance(0.7)) {
            generateLine(DataClass(rng.below(kNumDataClasses)),
                         rng.next(), data);
            mc.writebackLine(a, data, tr);
        } else {
            mc.fillLine(a, data, tr);
        }
    }
}

Line
classLine(DataClass c, uint64_t seed)
{
    Line l;
    generateLine(c, seed, l);
    return l;
}

} // namespace

class FreePageStress : public ::testing::TestWithParam<const char *>
{
};

TEST_P(FreePageStress, ReleaseRetouchCyclesStayClean)
{
    std::unique_ptr<MemoryController> mc = makeController(GetParam());
    const unsigned kPages = 24;

    for (unsigned cycle = 0; cycle < 3; ++cycle) {
        SCOPED_TRACE("cycle " + std::to_string(cycle));
        storm(*mc, kPages, 1200, Rng::mix(cycle, 42));
        {
            AuditReport rep = mc->audit();
            ASSERT_TRUE(rep.clean()) << rep.summary();
        }

        // Balloon-release every other page, then immediately re-touch
        // the freed range: freed pages must read zero and accept new
        // data without tripping stale state.
        for (PageNum p = 0; p < kPages; p += 2)
            mc->freePage(p);
        {
            AuditReport rep = mc->audit();
            ASSERT_TRUE(rep.clean()) << rep.summary();
        }
        Line fresh = classLine(DataClass::kDeltaInt, cycle);
        for (PageNum p = 0; p < kPages; p += 2) {
            Line got;
            McTrace tr;
            mc->fillLine(p * kPageBytes, got, tr);
            ASSERT_TRUE(isZeroLine(got)) << "page " << p;
            mc->writebackLine(p * kPageBytes, fresh, tr);
            mc->fillLine(p * kPageBytes, got, tr);
            ASSERT_EQ(got, fresh) << "page " << p;
        }
        {
            AuditReport rep = mc->audit();
            ASSERT_TRUE(rep.clean()) << rep.summary();
        }
    }

    // Full teardown: every chunk must come back.
    mc->flush();
    for (PageNum p = 0; p < kPages; ++p)
        mc->freePage(p);
    AuditReport rep = mc->audit();
    EXPECT_TRUE(rep.clean()) << rep.summary();
    EXPECT_EQ(mc->mpaDataBytes(), 0u);
    // The footprint and metadata accounting forget freed pages too.
    EXPECT_EQ(mc->ospaBytes(), 0u);
    EXPECT_EQ(mc->mpaMetadataBytes(), 0u);
    for (PageNum p = 0; p < kPages; ++p)
        EXPECT_EQ(mc->pageCompressedBytes(p), 0u) << "page " << p;
}

TEST_P(FreePageStress, DoubleFreeAndFreeUntouchedAreHarmless)
{
    std::unique_ptr<MemoryController> mc = makeController(GetParam());
    uint64_t freed_before = mc->stats().get("pages_freed");
    mc->freePage(7); // never touched
    storm(*mc, 8, 300, 99);
    mc->freePage(3);
    mc->freePage(3); // double free: idempotent
    // Only the one real release counts.
    EXPECT_EQ(mc->stats().get("pages_freed"), freed_before + 1);
    AuditReport rep = mc->audit();
    EXPECT_TRUE(rep.clean()) << rep.summary();
    McTrace tr;
    Line got;
    mc->fillLine(3 * kPageBytes, got, tr);
    EXPECT_TRUE(isZeroLine(got));
}

INSTANTIATE_TEST_SUITE_P(AllControllers, FreePageStress,
                         ::testing::Values("compresso", "lcp", "rmc"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

// ---------------------------------------------------------------------
// The OS-visible path: SimOs reclaim -> BalloonDriver -> freePage.
// ---------------------------------------------------------------------

TEST(BalloonStress, InflateReleasesChunksAndRetouchWorks)
{
    CompressoConfig cfg;
    cfg.installed_bytes = kArena;
    CompressoController mc(cfg);
    SimOs os(/*budget_pages=*/32);
    BalloonDriver balloon(os, mc);

    // Populate: the OS touches pages, the controller stores their data.
    Line data;
    for (PageNum p = 0; p < 32; ++p) {
        os.touch(p, /*dirty=*/true);
        for (unsigned l = 0; l < 4; ++l) {
            generateLine(DataClass::kDeltaInt, Rng::mix(p, l), data);
            McTrace tr;
            mc.writebackLine(p * kPageBytes + l * kLineBytes, data, tr);
        }
    }
    uint64_t used_before = mc.mpaDataBytes();
    ASSERT_GT(used_before, 0u);

    // Inflate: the OS gives up its coldest pages; the controller
    // releases their chunks.
    uint64_t got = balloon.inflate(8);
    EXPECT_EQ(got, 8u);
    EXPECT_EQ(balloon.heldPages(), 8u);
    EXPECT_LT(mc.mpaDataBytes(), used_before);
    EXPECT_EQ(os.residentPages(), 24u);
    {
        AuditReport rep = mc.audit();
        ASSERT_TRUE(rep.clean()) << rep.summary();
    }

    // Deflate and re-touch: pages come back zero-filled and writable.
    balloon.deflate(8);
    EXPECT_EQ(balloon.heldPages(), 0u);
    unsigned retouched = 0;
    for (PageNum p = 0; p < 32; ++p) {
        McTrace tr;
        Line got_line;
        mc.fillLine(p * kPageBytes, got_line, tr);
        if (isZeroLine(got_line)) {
            os.touch(p, true);
            generateLine(DataClass::kFloat, p, data);
            mc.writebackLine(p * kPageBytes, data, tr);
            mc.fillLine(p * kPageBytes, got_line, tr);
            ASSERT_EQ(got_line, data) << "page " << p;
            ++retouched;
        }
    }
    EXPECT_GE(retouched, 8u); // at least the ballooned pages
    AuditReport rep = mc.audit();
    EXPECT_TRUE(rep.clean()) << rep.summary();
}

TEST(BalloonStress, BalancePolicyKeepsReserve)
{
    // Tiny arena: a handful of incompressible pages exhaust it, and
    // balance() must claw chunks back from the OS.
    CompressoConfig cfg;
    cfg.installed_bytes = 64 * kChunkBytes;
    CompressoController mc(cfg);
    SimOs os(/*budget_pages=*/16);
    BalloonDriver balloon(os, mc);

    Line data;
    for (PageNum p = 0; p < 6; ++p) {
        os.touch(p, true);
        for (unsigned l = 0; l < kLinesPerPage; ++l) {
            generateLine(DataClass::kRandom, Rng::mix(p, l, 1), data);
            McTrace tr;
            mc.writebackLine(p * kPageBytes + l * kLineBytes, data, tr);
        }
    }

    uint64_t total = 64;
    uint64_t used = mc.mpaDataBytes() / kChunkBytes;
    uint64_t free_chunks = total - used;
    uint64_t reclaimed = balloon.balance(free_chunks, free_chunks + 8);
    EXPECT_GT(reclaimed, 0u);
    EXPECT_GT(total - mc.mpaDataBytes() / kChunkBytes, free_chunks);
    AuditReport rep = mc.audit();
    EXPECT_TRUE(rep.clean()) << rep.summary();
}
