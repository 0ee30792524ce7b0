/**
 * @file
 * Memory-capacity impact evaluation (Sec. VI-A).
 *
 * Replicates the paper's methodology with the miniature OS model: run
 * the workload's page-touch stream against an LRU-managed resident set
 * whose budget is a fraction of the footprint, scaled dynamically by
 * the system's real-time compression ratio (the cgroups trick). Page
 * faults cost fixed work; the result is the slowdown relative to an
 * unconstrained-memory run. Multi-core workloads share one budget and
 * are scored by average per-benchmark progress, as in Sec. VI-E.
 */

#ifndef COMPRESSO_CAPACITY_CAPACITY_EVAL_H
#define COMPRESSO_CAPACITY_CAPACITY_EVAL_H

#include <string>
#include <vector>

#include "sim/system.h"

namespace compresso {

struct CapacitySpec
{
    std::vector<std::string> workloads; ///< 1 or 4 benchmarks
    McKind kind = McKind::kCompresso;
    bool unconstrained = false; ///< upper-bound configuration
    double mem_frac = 0.7;      ///< budget / combined footprint
    uint64_t touches_per_core = 150000;
    /** Work units charged per page fault (page-in latency divided by
     *  per-touch compute; a page touch amortizes many accesses). */
    double fault_cost = 11.0;
    /** Bounded swap device: capacity = swap_frac * footprint pages.
     *  0 keeps the unlimited device (pre-pressure-model behaviour);
     *  bounded, a compressibility collapse that shrinks the budget
     *  can exhaust swap, and the overruns/rejections are reported
     *  instead of silently overcommitting (DESIGN.md §14). */
    double swap_frac = 0.0;
    uint64_t seed = 7;
};

struct CapacityResult
{
    /** Mean per-benchmark progress relative to unconstrained (<= 1). */
    double progress = 1.0;
    /** 1 / progress: the slowdown factor. */
    double slowdown = 1.0;
    std::vector<double> per_core_progress;
    double avg_ratio = 1.0; ///< time-averaged compression ratio
    bool stalled = false;   ///< thrashing: excluded benchmarks (Fig. 10b)
    uint64_t faults = 0;
    uint64_t swap_full = 0;       ///< page-outs a bounded swap rejected
    uint64_t budget_overruns = 0; ///< evictions with no safe victim
};

CapacityResult evalCapacity(const CapacitySpec &spec);

/**
 * Relative performance of @p kind vs the constrained uncompressed
 * baseline at @p mem_frac (the Fig. 10a/11a "Mem-Cap Impact" bars):
 * slowdown(uncompressed) / slowdown(kind).
 */
double capacitySpeedup(const CapacitySpec &spec);

} // namespace compresso

#endif // COMPRESSO_CAPACITY_CAPACITY_EVAL_H
