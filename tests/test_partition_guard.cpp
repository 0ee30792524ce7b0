/**
 * @file
 * Cross-partition safety tests (DESIGN.md §17): the tenant registry's
 * carve + ownership map, the PartitionPolicy refusal path, the SimOs
 * reclaim window (counted rejects and the fatal death-test stance),
 * the balloon driver's policy check, and the partition audit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/compresso_controller.h"
#include "os/balloon.h"
#include "service/tenant.h"
#include "workloads/datagen.h"

using namespace compresso;

namespace {

std::vector<TenantSpec>
twoTenants(uint64_t pages0 = 32, uint64_t pages1 = 48)
{
    // Assigning a temporary sidesteps GCC 12's -Wrestrict false positive
    // on assigning a short literal.
    TenantSpec a, b;
    a.name = std::string("a");
    a.pages = pages0;
    b.name = std::string("b");
    b.pages = pages1;
    return {a, b};
}

/** Write one page through the controller and make it OS-resident. */
void
writePage(MemoryController &mc, SimOs &os, PageNum p, DataClass cls,
          uint64_t seed)
{
    os.touch(p, true);
    Line data;
    for (unsigned l = 0; l < kLinesPerPage; ++l) {
        generateLine(cls, Rng::mix(p, l, seed), data);
        McTrace tr;
        mc.writebackLine(Addr(p) * kPageBytes + l * kLineBytes, data,
                         tr);
    }
}

} // namespace

TEST(TenantRegistry, CarvesBackToBackFromPageZero)
{
    TenantRegistry reg(twoTenants(32, 48));
    ASSERT_EQ(reg.count(), 2u);
    EXPECT_EQ(reg.partition(0).base_page, 0u);
    EXPECT_EQ(reg.partition(0).pages, 32u);
    EXPECT_EQ(reg.partition(1).base_page, 32u);
    EXPECT_EQ(reg.partition(1).pages, 48u);
    EXPECT_EQ(reg.totalPages(), 80u);

    std::vector<PartitionRange> ranges = reg.ranges();
    ASSERT_EQ(ranges.size(), 2u);
    EXPECT_EQ(ranges[1].base, 32u);
    EXPECT_EQ(ranges[1].pages, 48u);
}

TEST(TenantRegistry, OwnerOfIsARangeLookup)
{
    TenantRegistry reg(twoTenants(32, 48));
    EXPECT_EQ(reg.ownerOf(0), 0u);
    EXPECT_EQ(reg.ownerOf(31), 0u);
    EXPECT_EQ(reg.ownerOf(32), 1u);
    EXPECT_EQ(reg.ownerOf(79), 1u);
    EXPECT_EQ(reg.ownerOf(80), kNoTenant);
    EXPECT_TRUE(reg.contains(0, 5));
    EXPECT_FALSE(reg.contains(0, 32));
    EXPECT_FALSE(reg.contains(7, 5)); // no such tenant
}

TEST(TenantRegistry, MayFreePageOnlyRefusesUnderScope)
{
    TenantRegistry reg(twoTenants());
    SimOs os(reg.totalPages());

    // Global paths (no scope): everything is allowed.
    EXPECT_TRUE(reg.mayFreePage(0));
    EXPECT_TRUE(reg.mayFreePage(40));
    EXPECT_EQ(reg.crossPartitionAttempts(), 0u);
    EXPECT_EQ(reg.scopedTenant(), kNoTenant);

    {
        PartitionScope scope(reg, os, 0);
        EXPECT_EQ(reg.scopedTenant(), 0u);
        EXPECT_TRUE(os.reclaimWindowActive());
        EXPECT_TRUE(reg.mayFreePage(5));   // tenant 0's page
        EXPECT_FALSE(reg.mayFreePage(40)); // tenant 1's page
        EXPECT_FALSE(reg.mayFreePage(999));
        EXPECT_EQ(reg.crossPartitionAttempts(), 2u);
    }
    // Scope torn down: back to global behaviour, count sticks.
    EXPECT_EQ(reg.scopedTenant(), kNoTenant);
    EXPECT_FALSE(os.reclaimWindowActive());
    EXPECT_TRUE(reg.mayFreePage(40));
    EXPECT_EQ(reg.crossPartitionAttempts(), 2u);
}

TEST(ReclaimWindow, RejectsAndCountsOutOfWindowTargets)
{
    SimOs os(64);
    for (PageNum p = 0; p < 8; ++p)
        os.touch(p);
    ASSERT_TRUE(os.isResident(6));

    os.setReclaimWindow(0, 4);
    EXPECT_TRUE(os.inReclaimWindow(3));
    EXPECT_FALSE(os.inReclaimWindow(4));

    // Out-of-window target: refused, counted, page survives.
    EXPECT_FALSE(os.reclaimSpecific(6));
    EXPECT_TRUE(os.isResident(6));
    EXPECT_EQ(os.windowRejects(), 1u);

    // In-window target: the normal reclaim path.
    EXPECT_TRUE(os.reclaimSpecific(2));
    EXPECT_FALSE(os.isResident(2));

    os.clearReclaimWindow();
    EXPECT_TRUE(os.reclaimSpecific(6));
    EXPECT_EQ(os.windowRejects(), 1u);
}

TEST(ReclaimWindow, LruReclaimStaysInsideTheWindow)
{
    SimOs os(64);
    for (PageNum p = 0; p < 16; ++p)
        os.touch(p);

    os.setReclaimWindow(8, 4); // [8, 12)
    std::vector<PageNum> freed = os.reclaim(16);
    EXPECT_LE(freed.size(), 4u);
    for (PageNum p : freed)
        EXPECT_TRUE(p >= 8 && p < 12) << "freed page " << p;
    for (PageNum p : os.coldPages(16))
        EXPECT_TRUE(p >= 8 && p < 12) << "candidate page " << p;
    os.clearReclaimWindow();
}

TEST(ReclaimWindowDeathTest, FatalWindowAbortsOnCrossPartitionFree)
{
    SimOs os(64);
    for (PageNum p = 0; p < 8; ++p)
        os.touch(p);
    os.setReclaimWindow(0, 4, /*fatal=*/true);
    EXPECT_DEATH(os.reclaimSpecific(6), "outside");
}

TEST(BalloonPartition, PolicySkipsAndCountsForeignPages)
{
    TenantRegistry reg(twoTenants(32, 32));
    CompressoConfig cc;
    cc.installed_bytes = 2 * 1024 * 1024;
    CompressoController mc(cc);
    SimOs os(reg.totalPages());
    BalloonDriver balloon(os, mc);
    balloon.setPartitionPolicy(&reg);

    for (PageNum p = 0; p < 40; ++p)
        writePage(mc, os, p, DataClass::kSmallInt, 11);

    PartitionScope scope(reg, os, 0);
    // Demand two of tenant 0's pages and two of tenant 1's: the
    // foreign pages must be skipped and counted, never freed.
    uint64_t freed = balloon.inflateTargeted({2, 3, 34, 35});
    EXPECT_EQ(freed, 2u);
    EXPECT_FALSE(os.isResident(2));
    EXPECT_FALSE(os.isResident(3));
    EXPECT_TRUE(os.isResident(34));
    EXPECT_TRUE(os.isResident(35));
    EXPECT_EQ(balloon.partitionRejects(), 2u);
    EXPECT_GE(reg.crossPartitionAttempts(), 2u);

    std::vector<PageNum> drained = balloon.drainFreed();
    EXPECT_EQ(drained.size(), 2u);
    for (PageNum p : drained)
        EXPECT_EQ(reg.ownerOf(p), 0u);
    balloon.setPartitionPolicy(nullptr);
}

TEST(PartitionAudit, FlagsForeignAndOverlappingPages)
{
    TenantRegistry reg(twoTenants(32, 48));

    // Clean: every backed page owned by exactly one partition.
    AuditReport clean =
        InvariantAuditor::auditPartitions(reg.ranges(), {0, 31, 32, 79});
    EXPECT_EQ(clean.size(), 0u);

    // A backed page past the carve belongs to nobody.
    AuditReport orphan =
        InvariantAuditor::auditPartitions(reg.ranges(), {5, 80});
    EXPECT_EQ(orphan.size(), 1u);

    // Overlapping partition table: flagged regardless of pages.
    std::vector<PartitionRange> overlap = {{0, 40}, {32, 48}};
    AuditReport bad = InvariantAuditor::auditPartitions(overlap, {});
    EXPECT_GE(bad.size(), 1u);
}
