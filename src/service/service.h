/**
 * @file
 * Multi-tenant serving daemon over one shared Compresso controller
 * (DESIGN.md §17).
 *
 * runService() multiplexes N tenant sessions onto a single
 * compressed-memory stack (CompressoController + SimOs + balloon +
 * PressureGovernor + QosPolicy). Scheduling is round-based with a
 * strict generate/apply split:
 *
 *  1. *Generate* (parallel): every session produces its next batch —
 *     a pure function of session-owned state — on the exec ThreadPool,
 *     one pre-sized slot per tenant, any worker count.
 *  2. *Apply* (serial, fixed tenant order): the coordinating thread
 *     plays each batch through the shared controller, verifying read
 *     contents, attributing latency per tenant (PR-8 CycleAttributor +
 *     log2 histogram), and routing balloon-freed pages back to their
 *     owning session's divergence model.
 *
 * Because all shared-state mutation happens in step 2 in a fixed
 * order, the merged ServiceResult is bit-identical at any `--jobs N` —
 * the same pre-sized-slot determinism contract as runSoak
 * (DESIGN.md §9).
 *
 * QoS isolation is enforced at three points: admission shedding
 * (QosPolicy::shedFraction clips over-budget tenants' batches before
 * generation), per-tenant inflation budgets (QosPolicy interposing on
 * the governor), and end-of-round rebalancing — when a round ends at
 * critical pressure or worse, the service picks the tenant whose
 * backed pages are cheapest to reclaim (most-compressible first, the
 * Sec. V-B victim policy applied across tenants) and runs
 * tenant-scoped targeted ballooning under a PartitionScope, so the
 * reclaim can only ever free the victim's own pages.
 */

#ifndef COMPRESSO_SERVICE_SERVICE_H
#define COMPRESSO_SERVICE_SERVICE_H

#include <string>
#include <vector>

#include "core/compresso_controller.h"
#include "obs/attrib.h"
#include "obs/flight_recorder.h"
#include "pressure/governor.h"
#include "service/qos.h"
#include "service/session.h"
#include "service/tenant.h"

namespace compresso {

/** Simulated cycles per 64 B device op in the service's per-reference
 *  cost model (fixed_latency + critical ops * this + stall_cycles). */
inline constexpr Cycle kServiceDeviceOpCycles = 4;

struct ServiceConfig
{
    uint64_t seed = 1;
    std::vector<TenantSpec> tenants;

    /** Scheduling rounds; each round is one generate/apply cycle. */
    uint64_t rounds = 32;
    /** References per round per unit of tenant weight. */
    uint64_t refs_per_round = 512;
    /** Generation workers (0 = hardware concurrency). The merged
     *  result is bit-identical for every value. */
    unsigned jobs = 1;

    /** Installed machine bytes; 0 derives 2/3 of the promised OSPA
     *  bytes (the ~1.5x compression promise under pressure). */
    uint64_t installed_bytes = 0;
    /** Swap device capacity; 0 derives promised pages / 8. */
    uint64_t swap_capacity_pages = 0;

    /** Observer + FlightRecorder: tenant-tagged post-mortem bundles. */
    bool postmortem = false;

    /** Rotate the adversary role across tenants every N rounds
     *  (0 = keep the specs' static adversary flags). */
    uint64_t adversary_rotate_every = 0;

    /** Controller tuning; installed_bytes is overridden by the
     *  derivation above. Small metadata caches make the md-traffic
     *  fairness dimension observable. */
    CompressoConfig compresso{};
    GovernorConfig governor{};
};

/** Per-tenant slice of the merged service document. */
struct TenantReport
{
    std::string name;
    std::string profile;
    bool adversary = false; ///< ever held the adversary role
    uint64_t partition_base = 0;
    uint64_t partition_pages = 0;

    uint64_t refs = 0;
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t shed = 0; ///< refs clipped at the admission edge
    uint64_t faults = 0;
    uint64_t md_ops = 0;          ///< metadata-cache miss device ops
    uint64_t gov_denied = 0;      ///< governor denials during batches
    uint64_t inflation_denied = 0; ///< QoS per-tenant budget denials
    uint64_t oom_dropped_writes = 0;
    uint64_t verify_failures = 0; ///< silent corruptions (must be 0)
    uint64_t zero_tolerated = 0;  ///< balloon/ladder zero reads
    uint64_t unverified = 0;      ///< reads of divergent lines
    uint64_t pages_lost = 0;      ///< ballooned away from this tenant

    uint64_t touched_pages = 0;
    double comp_ratio = 1.0;      ///< data-only, this partition
    double effective_ratio = 1.0; ///< with apportioned metadata

    uint64_t lat_p50 = 0;
    uint64_t lat_p99 = 0;
    uint64_t lat_max = 0;
    double lat_mean = 0.0;
    AttribSnapshot attrib; ///< per-component latency breakdown
};

/** Merged result of one service run ("compresso-service-v1"). */
struct ServiceResult
{
    uint64_t seed = 0;
    uint64_t rounds = 0;
    uint64_t refs_per_round = 0;
    uint64_t total_refs = 0;

    std::string level_end;
    uint32_t max_level = 0;
    uint64_t oom_events = 0;
    uint64_t oom_rescued = 0;
    uint64_t oom_unrescued = 0;

    uint64_t rebalances = 0;
    uint64_t rebalance_pages = 0;
    uint64_t cross_partition_attempts = 0; ///< registry refusals
    uint64_t balloon_partition_rejects = 0;
    uint64_t os_window_rejects = 0;

    uint64_t audit_violations = 0;
    uint64_t partition_audit_violations = 0;
    uint64_t silent_corruptions = 0;

    double comp_ratio = 1.0; ///< machine-wide
    double effective_ratio = 1.0;

    std::vector<TenantReport> tenants;
    std::vector<PostmortemBundle> postmortems;
};

/** Run the service to completion. Deterministic: a pure function of
 *  (cfg.seed, cfg) at any cfg.jobs. */
ServiceResult runService(const ServiceConfig &cfg);

} // namespace compresso

#endif // COMPRESSO_SERVICE_SERVICE_H
