/**
 * @file
 * Experiment runner: builds a System for (back end, workloads), runs a
 * fixed reference budget, and reduces the statistics into the metrics
 * the paper's figures report.
 */

#ifndef COMPRESSO_SIM_RUNNER_H
#define COMPRESSO_SIM_RUNNER_H

#include <string>
#include <vector>

#include "fault/reliability_report.h"
#include "prof/profiler.h"
#include "sim/system.h"

namespace compresso {

struct RunSpec
{
    McKind kind = McKind::kCompresso;
    /** One workload per core (1 or 4 entries). */
    std::vector<std::string> workloads;
    uint64_t refs_per_core = 400000;
    uint64_t warmup_refs = 40000;
    uint64_t seed = 1;
    /** Compresso's settings; cores/l3 are derived from workloads. */
    CompressoConfig compresso;
    /** Fault-campaign mode: nonzero rates attach a deterministic
     *  FaultInjector (src/fault) for the whole run. */
    FaultConfig fault;
    /** Observability: obs.enabled attaches an Observer (src/obs) for
     *  the whole run; the snapshot lands in RunResult::obs. */
    ObsConfig obs;
    /** Host-side profiling (src/prof): prof.enabled activates a
     *  Profiler for the whole run; the digest (per-phase host ns +
     *  throughput gauges) lands in RunResult::prof. */
    ProfConfig prof;
    /** Chrome trace-event JSON export path (empty = no export). */
    std::string obs_trace_path;
    /** Epoch time-series CSV export path (empty = no export). */
    std::string obs_epoch_csv_path;
};

struct RunResult
{
    std::string label;
    double cycles = 0;
    uint64_t insts = 0;
    double perf = 0; ///< instructions per cycle (all cores)

    double comp_ratio = 1.0; ///< OSPA / MPA data bytes
    /** Metadata-inclusive ratio (what capacity planning gets). */
    double effective_ratio = 1.0;

    /** Compression-related extra device accesses, relative to the
     *  fills+writebacks an uncompressed system would issue (Fig. 4/6
     *  metric), split by cause. */
    double extra_split = 0;
    double extra_overflow = 0; ///< line/page overflow handling moves
    double extra_repack = 0;
    double extra_metadata = 0;
    double extra_total = 0;

    double md_hit_rate = 0;
    double zero_access_frac = 0; ///< fills+wbs served by metadata alone

    /** Fault-campaign outcome (all-zero when no injector ran). */
    ReliabilityReport reliability;
    /** Open invariant violations at end of run (post-degradation). */
    uint64_t audit_violations = 0;

    StatGroup mc_stats;
    StatGroup dram_stats;

    /** Observability digest (enabled == false when obs was off). */
    ObsSnapshot obs;

    /** Simulated-cycle attribution digest (DESIGN.md §15; enabled ==
     *  false when obs or attribution was off). */
    AttribSnapshot attrib;

    /** Post-mortem bundles the anomaly flight recorder captured
     *  (DESIGN.md §16; empty when obs or the recorder was off).
     *  RunSink's --postmortem writes each as one JSON document. */
    std::vector<PostmortemBundle> postmortems;

    /** Host-profile digest (enabled == false when prof was off).
     *  wall_ns/sim_refs cover the measured section (post-warmup). */
    ProfSnapshot prof;
};

/** Build and run one configuration. */
RunResult runSystem(const RunSpec &spec);

/** Convenience: standard Tab. III system for a given back end and
 *  workload set (sets shared-L3 size by core count). */
SystemConfig makeSystemConfig(McKind kind, unsigned cores,
                              const RunSpec &spec);

} // namespace compresso

#endif // COMPRESSO_SIM_RUNNER_H
