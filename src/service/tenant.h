/**
 * @file
 * Tenant registry: carves the OSPA space into per-tenant partitions
 * with enforced bounds (DESIGN.md §17).
 *
 * The multi-tenant service promises each tenant a contiguous slice of
 * the OS physical address space — the same promise a cloud host makes
 * with cgroups, translated to Compresso's OSPA. Partitions are carved
 * back-to-back at registration time, so ownership is a range check and
 * the whole map fits in a handful of cache lines.
 *
 * Enforcement is the registry's second job: it implements the
 * PartitionPolicy hook (core/pressure_hooks.h), and a PartitionScope
 * (RAII) marks a *tenant-scoped* reclaim operation — while one is
 * active, the SimOs reclaim window and the balloon driver's policy
 * check both refuse to free pages outside the scoped tenant's
 * partition. Cross-partition attempts are counted, surfaced through
 * the flight recorder, and flagged by the InvariantAuditor's
 * kCrossPartition rule. Global paths (governor emergency rescue) run
 * without a scope and keep their machine-wide victim choice.
 */

#ifndef COMPRESSO_SERVICE_TENANT_H
#define COMPRESSO_SERVICE_TENANT_H

#include <cstdint>
#include <string>
#include <vector>

#include "check/invariant_auditor.h"
#include "core/pressure_hooks.h"
#include "os/sim_os.h"

namespace compresso {

using TenantId = uint32_t;
inline constexpr TenantId kNoTenant = ~TenantId(0);

/** Behaviour and QoS contract of one tenant session. */
struct TenantSpec
{
    std::string name;

    /** OSPA pages in this tenant's partition. */
    uint64_t pages = 256;

    /** Workload personality (src/workloads profile name) driving the
     *  session stream. */
    std::string profile = "gcc";

    /** Scheduling weight: references per round are proportional. */
    uint32_t weight = 1;

    /** Adversarial session: page-random traffic across the whole
     *  partition, write-heavy, incompressible data — the
     *  compressibility-skew neighbour the isolation bench proves
     *  cannot collapse its neighbours (ZipCache's fairness problem). */
    bool adversary = false;

    /** Metadata-cache budget as a share of the whole cache's miss
     *  traffic; 0 = fair share (1 / tenant count). A tenant over
     *  budget is shed first as pressure rises. */
    double mdcache_share = 0.0;

    /** Inflation-room growths admitted per round (QoS budget routed
     *  through the PressureGovernor's admission chain). */
    uint64_t inflation_budget = 64;
};

/** One tenant's slice of the OSPA space: [base, base + pages). */
struct TenantPartition
{
    TenantId id = kNoTenant;
    PageNum base_page = 0;
    uint64_t pages = 0;

    bool
    contains(PageNum page) const
    {
        return page >= base_page && page < base_page + pages;
    }
};

class TenantRegistry : public PartitionPolicy
{
  public:
    /** Carve one partition per spec, back-to-back from page 0. */
    explicit TenantRegistry(std::vector<TenantSpec> specs);

    size_t count() const { return specs_.size(); }
    const TenantSpec &spec(TenantId t) const { return specs_[t]; }
    TenantSpec &spec(TenantId t) { return specs_[t]; }
    const TenantPartition &partition(TenantId t) const
    {
        return parts_[t];
    }

    /** Owning tenant of @p page; kNoTenant for pages past the carve. */
    TenantId ownerOf(PageNum page) const;

    bool
    contains(TenantId t, PageNum page) const
    {
        return t < parts_.size() && parts_[t].contains(page);
    }

    /** Total promised OSPA pages (the SimOs budget). */
    uint64_t totalPages() const { return total_pages_; }

    /** Partition table for InvariantAuditor::auditPartitions. */
    std::vector<PartitionRange> ranges() const;

    /** Tenant a PartitionScope currently restricts reclaim to. */
    TenantId scopedTenant() const { return scoped_; }

    // --- PartitionPolicy ---
    /** Allowed when no scope is active (global paths) or the page is
     *  inside the scoped tenant's partition; otherwise counted as a
     *  cross-partition attempt and refused. */
    bool mayFreePage(PageNum page) override;

    /** Cross-partition free attempts refused so far. */
    uint64_t crossPartitionAttempts() const { return cross_attempts_; }

  private:
    friend class PartitionScope;

    std::vector<TenantSpec> specs_;
    std::vector<TenantPartition> parts_;
    uint64_t total_pages_ = 0;
    TenantId scoped_ = kNoTenant;
    uint64_t cross_attempts_ = 0;
};

/**
 * RAII marker for a tenant-scoped reclaim operation: installs the
 * SimOs reclaim window and the registry's scoped tenant for the
 * duration. @p fatal makes an out-of-window reclaimSpecific() abort
 * (the death-test stance) instead of rejecting. Scopes do not nest.
 */
class PartitionScope
{
  public:
    PartitionScope(TenantRegistry &reg, SimOs &os, TenantId tenant,
                   bool fatal = false)
        : reg_(reg), os_(os)
    {
        const TenantPartition &p = reg_.partition(tenant);
        reg_.scoped_ = tenant;
        os_.setReclaimWindow(p.base_page, p.pages, fatal);
    }
    ~PartitionScope()
    {
        reg_.scoped_ = kNoTenant;
        os_.clearReclaimWindow();
    }
    PartitionScope(const PartitionScope &) = delete;
    PartitionScope &operator=(const PartitionScope &) = delete;

  private:
    TenantRegistry &reg_;
    SimOs &os_;
};

} // namespace compresso

#endif // COMPRESSO_SERVICE_TENANT_H
