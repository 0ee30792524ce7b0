/**
 * @file
 * ChaosEngine: deterministic memory-pressure chaos/soak harness
 * (DESIGN.md §14).
 *
 * Drives one controller kind (compresso / lcp / rmc) through a
 * schedule of adversarial scenarios while the full pressure stack —
 * SimOs + BalloonDriver + PressureGovernor + Watchdog — is live, and
 * continuously verifies three things:
 *
 *  1. **No silent corruption.** The engine keeps a per-line expected
 *     content model {class, version}; every fill is checked against
 *     regenerateable expected bytes. Zero reads are tolerated where
 *     the degradation ladder legitimately produces them (poisoned
 *     lines pre-heal, ballooned-away pages) and counted separately —
 *     a *wrong non-zero* read is a silent corruption and fails the
 *     soak.
 *  2. **Invariants hold under pressure.** The InvariantAuditor runs
 *     at every phase boundary; any violation fails the soak.
 *  3. **Stalls stay bounded.** Per-reference device-op stall is
 *     histogrammed per phase; the report carries p50/p99/max and the
 *     soak fails if p99 exceeds the configured bound.
 *
 * Scenarios:
 *  - calm:              compressible mix, uniform pages (baseline)
 *  - collapse_storm:    write entropy ramps to incompressible over
 *                       the phase, concentrated on a hot set — the
 *                       compressibility-collapse OOM driver
 *  - balloon_thrash:    periodic balloon inflate/deflate bursts
 *  - swap_storm:        working set overflows the OS budget with a
 *                       capacity-bounded swap device (swap_full path)
 *  - metadata_pressure: page-random traffic across the whole promised
 *                       range (metadata-cache thrash)
 *  - fault_burst:       ambient bit-upset rates switched on for the
 *                       phase (degradation-ladder storms)
 *
 * Determinism: everything is derived from ChaosConfig::seed through
 * the repo's xoshiro streams; no host time, no scheduling dependence.
 * runSoak() shards one job per controller kind over src/exec Campaign
 * — per-job results land in a pre-sized slot by job index, so
 * `--jobs 1` and `--jobs N` produce bit-identical reports.
 */

#ifndef COMPRESSO_PRESSURE_CHAOS_H
#define COMPRESSO_PRESSURE_CHAOS_H

#include <array>
#include <string>
#include <vector>

#include "pressure/governor.h"

namespace compresso {

enum class ChaosScenario : uint8_t
{
    kCalm = 0,
    kCollapseStorm,
    kBalloonThrash,
    kSwapStorm,
    kMetadataPressure,
    kFaultBurst,
    kCount,
};

/** Stable lowercase name (also the soak-JSON scenario key). */
const char *chaosScenarioName(ChaosScenario s);

/** Parse a scenario name; returns kCount for unknown names. */
ChaosScenario chaosScenarioFromName(const std::string &name);

/** Soak acceptance bound on per-reference p99 device-op stall. */
inline constexpr uint64_t kChaosStallP99Bound = 4096;

struct ChaosConfig
{
    uint64_t seed = 1;
    /** Line references per phase. */
    uint64_t refs_per_phase = 100000;
    /** Scenario schedule; empty = defaultPhases(). */
    std::vector<ChaosScenario> phases;

    uint64_t installed_bytes = uint64_t(8) << 20;
    /** OSPA pages promised to the OS; 0 = 2x the installed pages
     *  (the paper's ~2x compression promise). */
    uint64_t promised_pages = 0;
    /** Pages the workload touches outside swap_storm; 0 = 3/4 of the
     *  promise. */
    uint64_t working_pages = 0;
    /** Swap device slot capacity; 0 = promised_pages / 8. */
    uint64_t swap_capacity_pages = 0;

    /** Anomaly post-mortems (DESIGN.md §16): attach an Observer with
     *  a flight recorder to every chaos run and force one bundle per
     *  injected storm phase (plus any audit violation). Off by
     *  default — the recorder never changes simulated behaviour, but
     *  a flag keeps the no-observer runs of existing determinism
     *  tests byte-for-byte untouched. */
    bool postmortem = false;

    /** Governor tuning; total_chunks is filled from installed_bytes. */
    GovernorConfig governor{};

    /** The canonical rotation: calm warmup, collapse storm, balloon
     *  thrash, swap storm, metadata pressure, fault burst, calm
     *  recovery. */
    static std::vector<ChaosScenario> defaultPhases();
};

/** Per-phase telemetry (one soak-JSON `phases[]` entry). */
struct ChaosPhaseReport
{
    std::string scenario;
    uint64_t refs = 0;
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t verify_failures = 0; ///< silent corruptions (must be 0)
    uint64_t zero_tolerated = 0;  ///< ladder-legitimate zero reads
    uint64_t audit_violations = 0;
    std::string level_end;          ///< pressure level at phase end
    uint32_t max_level = 0;         ///< highest PressureLevel seen
    uint64_t stall_p50 = 0;         ///< per-ref device ops
    uint64_t stall_p99 = 0;
    uint64_t stall_max = 0;
    /** Watchdog stall digests by PressureOp (phase-local). */
    std::array<Watchdog::Digest, size_t(PressureOp::kCount)> ops{};
    /** Selected controller/pressure counter deltas over the phase
     *  (sorted by key in the export). */
    uint64_t machine_oom = 0;
    uint64_t oom_rescues = 0;
    /** Writes the controller dropped on an unrescued machine OOM:
     *  the old bytes stay intact, so the model rolls back instead of
     *  flagging a corruption. Loud (counted) data loss, not silent. */
    uint64_t oom_dropped_writes = 0;
    uint64_t throttled = 0;     ///< all *_throttled + escalations
    uint64_t ladder_steps = 0;  ///< fault-ladder actions recorded
    uint64_t swap_full = 0;
    uint64_t budget_overruns = 0;
};

/** Whole-run report for one controller kind. */
struct ChaosReport
{
    std::string controller;
    uint64_t seed = 0;
    uint64_t total_refs = 0;
    std::vector<ChaosPhaseReport> phases;

    uint64_t silent_corruptions = 0;
    uint64_t audit_violations = 0;
    uint64_t watchdog_breaches = 0;
    uint64_t watchdog_denials = 0;
    uint64_t throttled_total = 0;
    uint64_t ladder_steps = 0;
    uint64_t oom_events = 0;
    uint64_t oom_rescued = 0;
    uint64_t oom_unrescued = 0;
    uint64_t stall_p99_max = 0; ///< max per-phase stall p99
    bool passed = false;
    std::string fail_reason; ///< empty when passed

    /** Flight-recorder bundles (ChaosConfig::postmortem only): one
     *  forced per storm phase, plus anomaly-triggered captures.
     *  balloon_oom's --postmortem writes them as JSON documents. */
    std::vector<PostmortemBundle> postmortems;
};

class ChaosEngine
{
  public:
    explicit ChaosEngine(const ChaosConfig &cfg);

    /** Run the schedule against one controller kind ("compresso",
     *  "lcp", "rmc"). Pure function of (cfg, kind). */
    ChaosReport run(const std::string &kind) const;

    /** The three compressed controller kinds, canonical order. */
    static const std::vector<std::string> &allKinds();

    const ChaosConfig &config() const { return cfg_; }

  private:
    ChaosConfig cfg_; ///< normalized (derived fields filled in)
};

/** Campaign-sharded soak: one ChaosEngine job per controller kind. */
struct SoakConfig
{
    ChaosConfig chaos;
    /** Controller kinds; empty = ChaosEngine::allKinds(). */
    std::vector<std::string> kinds;
    /** Worker threads (CampaignPolicy::jobs); 0 = hardware. */
    unsigned jobs = 1;
};

struct SoakResult
{
    uint64_t seed = 0;
    std::vector<ChaosReport> reports; ///< by kind, submission order
    bool
    allPassed() const
    {
        for (const auto &r : reports)
            if (!r.passed)
                return false;
        return !reports.empty();
    }
};

/** Run the soak over a Campaign; deterministic per job index, so the
 *  result is bit-identical for any worker count. */
SoakResult runSoak(const SoakConfig &cfg);

} // namespace compresso

#endif // COMPRESSO_PRESSURE_CHAOS_H
