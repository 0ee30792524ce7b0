/**
 * @file
 * Tests for the cache model and the three-level hierarchy.
 */

#include <gtest/gtest.h>

#include "cache/cache.h"
#include "cache/hierarchy.h"

using namespace compresso;

namespace {

CacheConfig
tiny(size_t lines, unsigned ways)
{
    return CacheConfig{lines * kLineBytes, ways, "t"};
}

} // namespace

TEST(Cache, MissThenHit)
{
    Cache c(tiny(8, 2));
    EXPECT_FALSE(c.access(0, false).hit);
    EXPECT_TRUE(c.access(0, false).hit);
}

TEST(Cache, SubLineAddressesAlias)
{
    Cache c(tiny(8, 2));
    c.access(0, false);
    EXPECT_TRUE(c.access(63, false).hit);
    EXPECT_FALSE(c.access(64, false).hit);
}

TEST(Cache, LruEvictionWithinSet)
{
    Cache c(tiny(8, 2)); // 4 sets, 2 ways
    // Three lines mapping to set 0: 0, 4*64, 8*64.
    c.access(0, false);
    c.access(4 * 64, false);
    c.access(0, false);          // refresh 0
    c.access(8 * 64, false);     // evicts 4*64
    EXPECT_TRUE(c.contains(0));
    EXPECT_FALSE(c.contains(4 * 64));
}

TEST(Cache, DirtyVictimReportsWriteback)
{
    Cache c(tiny(2, 1)); // 2 sets, direct-mapped
    c.access(0, true);   // dirty
    CacheResult r = c.access(2 * 64, false); // same set, evicts 0
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.victim_addr, 0u);
}

TEST(Cache, CleanVictimNoWriteback)
{
    Cache c(tiny(2, 1));
    c.access(0, false);
    CacheResult r = c.access(2 * 64, false);
    EXPECT_FALSE(r.writeback);
}

TEST(Cache, WriteHitDirties)
{
    Cache c(tiny(2, 1));
    c.access(0, false);
    c.access(0, true); // now dirty
    CacheResult r = c.access(2 * 64, false);
    EXPECT_TRUE(r.writeback);
}

TEST(Cache, InvalidateReportsDirtiness)
{
    Cache c(tiny(4, 2));
    c.access(0, true);
    bool dirty = false;
    EXPECT_TRUE(c.invalidate(0, dirty));
    EXPECT_TRUE(dirty);
    EXPECT_FALSE(c.contains(0));
    EXPECT_FALSE(c.invalidate(0, dirty));
}

TEST(Cache, StatsCount)
{
    Cache c(tiny(4, 2));
    c.access(0, false);
    c.access(0, false);
    c.access(64, true);
    EXPECT_EQ(c.stats().get("accesses"), 3u);
    EXPECT_EQ(c.stats().get("hits"), 1u);
    EXPECT_EQ(c.stats().get("misses"), 2u);
}

TEST(Cache, RejectsDegenerateGeometry)
{
    // Smaller than one set, no ways, three sets, and a size that is
    // not a whole number of 8-way sets.
    EXPECT_DEATH(Cache(tiny(4, 8)), "power-of-two");
    EXPECT_DEATH(Cache(tiny(8, 0)), "power-of-two");
    EXPECT_DEATH(Cache(tiny(6, 2)), "power-of-two");
    EXPECT_DEATH(Cache(CacheConfig{9 * 8 * kLineBytes / 2, 8, "t"}),
                 "power-of-two");
    // The Tab. III geometries, the 4-core L3 and a direct-mapped cache.
    for (CacheConfig ok : {CacheConfig{64 << 10, 8, "l1"},
                           CacheConfig{512 << 10, 8, "l2"},
                           CacheConfig{2 << 20, 16, "l3"},
                           CacheConfig{8 << 20, 16, "l3"},
                           CacheConfig{kLineBytes, 1, "t"}}) {
        Cache c(ok);
        EXPECT_FALSE(c.access(0, false).hit);
    }
}

TEST(Hierarchy, L1HitFastPath)
{
    HierarchyConfig cfg;
    Hierarchy h(cfg);
    h.access(0, 0x1000, false); // miss everywhere
    HierarchyOutcome out = h.access(0, 0x1000, false);
    EXPECT_EQ(out.hit_level, 1u);
    EXPECT_EQ(out.hit_latency, cfg.l1_latency);
}

TEST(Hierarchy, MissReachesMemory)
{
    Hierarchy h(HierarchyConfig{});
    HierarchyOutcome out = h.access(0, 0x2000, false);
    EXPECT_EQ(out.hit_level, 0u);
    EXPECT_TRUE(out.memory_writebacks.empty());
}

TEST(Hierarchy, L2CatchesL1Evictions)
{
    HierarchyConfig cfg;
    cfg.l1_bytes = 2 * kLineBytes; // 2-line L1
    cfg.l1_ways = 1;
    Hierarchy h(cfg);
    h.access(0, 0, false);
    h.access(0, 2 * 64, false); // evicts 0 from L1 (clean)
    HierarchyOutcome out = h.access(0, 0, false);
    EXPECT_EQ(out.hit_level, 2u);
}

TEST(Hierarchy, DirtyDataSpillsToMemoryEventually)
{
    HierarchyConfig cfg;
    cfg.l1_bytes = 2 * kLineBytes;
    cfg.l1_ways = 1;
    cfg.l2_bytes = 4 * kLineBytes;
    cfg.l2_ways = 1;
    cfg.l3_bytes = 8 * kLineBytes;
    cfg.l3_ways = 1;
    Hierarchy h(cfg);

    h.access(0, 0, true); // dirty line 0
    // Touch enough conflicting lines to push line 0 out of all levels.
    unsigned spills = 0;
    for (unsigned i = 1; i < 64; ++i) {
        HierarchyOutcome out = h.access(0, Addr(i) * 8 * 64, false);
        spills += unsigned(out.memory_writebacks.size());
    }
    EXPECT_GE(spills, 1u);
}

TEST(Hierarchy, PerCorePrivateL1)
{
    HierarchyConfig cfg;
    cfg.cores = 2;
    Hierarchy h(cfg);
    h.access(0, 0x3000, false);
    // Core 1 misses its private L1/L2 but hits the shared L3.
    HierarchyOutcome out = h.access(1, 0x3000, false);
    EXPECT_EQ(out.hit_level, 3u);
}
