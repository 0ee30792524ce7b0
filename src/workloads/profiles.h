/**
 * @file
 * Synthetic benchmark profiles standing in for the paper's workloads
 * (SPEC CPU2006, Forestfire, Pagerank, Graph500).
 *
 * Each profile describes a benchmark's *memory personality*: what its
 * data looks like (class mix => compressibility), how it accesses
 * memory (locality, streaming, write fraction, memory intensity), and
 * how its data evolves (churn => overflows/underflows, phases =>
 * time-varying compressibility). The parameters are tuned so the
 * per-benchmark compression ratios, metadata-cache behaviour and
 * memory sensitivity qualitatively reproduce Figs. 2, 4 and 10.
 */

#ifndef COMPRESSO_WORKLOADS_PROFILES_H
#define COMPRESSO_WORKLOADS_PROFILES_H

#include <string>
#include <vector>

#include "workloads/datagen.h"

namespace compresso {

struct WorkloadProfile
{
    std::string name;

    /** Footprint in 4 KB pages for cycle-level simulation (scaled-down
     *  working set; the real benchmarks use GBs). */
    uint32_t pages = 2048;

    /** Per-page dominant data-class mix. Pages draw a dominant class
     *  from this mix; lines within a page follow the dominant class
     *  with some in-page noise. */
    ClassMix mix{};

    /** Extra probability that any individual line is zero. */
    double zero_line_frac = 0.0;

    /** Fraction of pages forming the hot set, and the probability an
     *  access targets it. */
    double hot_frac = 0.12;
    double hot_prob = 0.85;

    /** Probability an access is part of a sequential streaming sweep
     *  (as opposed to the hot/cold random pattern). */
    double seq_frac = 0.1;

    /** Fraction of accesses that are writes. */
    double write_frac = 0.3;

    /** Non-memory instructions per memory access (memory intensity;
     *  low = bandwidth-bound). */
    double inst_per_mem = 6.0;

    /** Probability a write redraws the line's data class from the mix
     *  (drives cache-line overflows and underflows). */
    double churn = 0.05;

    /** Probability that a redraw during a streaming write is forced to
     *  incompressible data (the zero-page-then-stream pattern that
     *  motivates the overflow predictor, Sec. IV-B2). */
    double stream_fill_random = 0.0;

    /** Compressibility phases (Sec. VI-B); >1 makes the class mix
     *  oscillate with amplitude phase_amp over the run. */
    unsigned phases = 1;
    double phase_amp = 0.0;

    /** Memory-capacity evaluation: true for benchmarks that thrash and
     *  stall when memory is constrained to 70% (mcf, GemsFDTD, lbm). */
    bool stalls_when_constrained = false;
};

/** All 30 profiles, in the paper's Fig. 2 order. */
const std::vector<WorkloadProfile> &allProfiles();

/** Lookup by name; aborts on unknown names (programming error). */
const WorkloadProfile &profileByName(const std::string &name);

/** Deterministic per-page dominant class for (profile, page, phase). */
DataClass pageClass(const WorkloadProfile &p, uint64_t page,
                    unsigned phase);

/** Deterministic class of a line, given its page's dominant class:
 *  mostly the dominant class with in-page noise and zero lines. */
DataClass lineClass(const WorkloadProfile &p, uint64_t page, unsigned line,
                    unsigned phase);

/** Mix adjusted for a phase (identity when p.phases <= 1). */
ClassMix phaseMix(const WorkloadProfile &p, unsigned phase);

} // namespace compresso

#endif // COMPRESSO_WORKLOADS_PROFILES_H
