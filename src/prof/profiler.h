/**
 * @file
 * Host-side hierarchical profiler: where does *simulator* wall time go?
 *
 * PR 3 instrumented the simulated machine (src/obs); this layer
 * observes the simulator itself. A fixed enum of phases (compressor
 * kernels, controller fill/writeback/repack/overflow, metadata cache,
 * DRAM model, sim loop) keeps the hot path free of name lookups: a
 * CPR_PROF_SCOPE(phase) site is an RAII ScopedTimer over
 * steady_clock that charges inclusive nanoseconds to its phase and
 * exclusive nanoseconds to the innermost enclosing scope's phase.
 *
 * Collection is thread-local and lock-free on the hot path: each
 * thread that activates a Profiler (ProfScope) gets its own
 * ProfThreadState; snapshot() merges all thread states under a mutex
 * (merge-on-report, for the multicore bench drivers). Quiesce worker
 * threads before snapshotting — merge is not concurrent with emission.
 *
 * Two-level gate, matching src/obs:
 *  - compile time: COMPRESSO_PROF_DISABLED turns CPR_PROF_SCOPE into
 *    ((void)0) — no code at the instrumentation sites at all;
 *  - runtime: no active Profiler on the thread means a ScopedTimer
 *    construction is a single thread-local null test.
 */

#ifndef COMPRESSO_PROF_PROFILER_H
#define COMPRESSO_PROF_PROFILER_H

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "common/thread_annotations.h"
#include "prof/prof_config.h"

namespace compresso {

/**
 * Every profiled phase, with its stable report name. One entry per
 * compressor kernel direction plus the controller / metadata-cache /
 * DRAM / cache-hierarchy / access-stream / sim-loop hot paths. Names
 * are dotted "<component>.<op>" so reports group naturally.
 */
#define CPR_PROF_PHASE_LIST(X)                                          \
    X(kBdiCompress, "bdi.compress")                                     \
    X(kBdiDecompress, "bdi.decompress")                                 \
    X(kBpcCompress, "bpc.compress")                                     \
    X(kBpcDecompress, "bpc.decompress")                                 \
    X(kCpackCompress, "cpack.compress")                                 \
    X(kCpackDecompress, "cpack.decompress")                             \
    X(kFpcCompress, "fpc.compress")                                     \
    X(kFpcDecompress, "fpc.decompress")                                 \
    X(kLzCompress, "lz.compress")                                       \
    X(kLzDecompress, "lz.decompress")                                   \
    X(kMcFill, "mc.fill")                                               \
    X(kMcWriteback, "mc.writeback")                                     \
    X(kMcOverflow, "mc.overflow")                                       \
    X(kMcRepack, "mc.repack")                                           \
    X(kMdCacheAccess, "mdcache.access")                                 \
    X(kDramAccess, "dram.access")                                       \
    X(kCacheHierarchy, "cache.hierarchy")                               \
    X(kStreamNext, "stream.next")                                       \
    X(kSimPopulate, "sim.populate")                                     \
    X(kSimRun, "sim.run")

enum class ProfPhase : uint32_t
{
#define CPR_PROF_X(id, name) id,
    CPR_PROF_PHASE_LIST(CPR_PROF_X)
#undef CPR_PROF_X
        kCount
};

inline constexpr size_t kProfPhaseCount = size_t(ProfPhase::kCount);

/** Stable report name of @p phase ("mc.fill", "bpc.compress", ...). */
const char *profPhaseName(ProfPhase phase);

/** steady_clock in integer nanoseconds (the profiler's time base). */
inline uint64_t
profNowNs()
{
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now()
                            .time_since_epoch())
                        .count());
}

/** Per-phase accumulators. Inclusive counts time with children;
 *  exclusive subtracts time spent in nested profiled scopes. */
struct ProfPhaseTotals
{
    uint64_t calls = 0;
    uint64_t incl_ns = 0;
    uint64_t excl_ns = 0;
};

class ScopedTimer;

/** One thread's collection state; owned by the Profiler, touched
 *  without locks by exactly one thread. */
struct ProfThreadState
{
    std::array<ProfPhaseTotals, kProfPhaseCount> totals{};
    /** Innermost open scope on this thread (exclusive-time chain). */
    ScopedTimer *top = nullptr;
};

/** Value-type digest of a Profiler, carried in RunResult so exports
 *  survive the Profiler's destruction. */
struct ProfSnapshot
{
    struct Phase
    {
        uint64_t calls = 0;
        uint64_t incl_ns = 0;
        uint64_t excl_ns = 0;
    };

    bool enabled = false;
    uint64_t threads = 0; ///< thread states merged
    /** Host wall time of the measured section (addWallNs). */
    uint64_t wall_ns = 0;
    /** Simulated references covered by wall_ns (addWork). */
    uint64_t sim_refs = 0;
    // Throughput gauges, derived from the two totals above.
    double refs_per_host_sec = 0;
    double host_ns_per_ref = 0;
    /** Only phases with calls > 0, keyed by profPhaseName. */
    std::map<std::string, Phase> phases;
};

class Profiler
{
  public:
    Profiler() = default;
    Profiler(const Profiler &) = delete;
    Profiler &operator=(const Profiler &) = delete;

    /** This thread's collection state (registered on first use; the
     *  same thread always gets the same state back). */
    ProfThreadState *threadState();

    /** Throughput gauges: host wall nanoseconds of the measured
     *  section and the simulated work it covered. Thread-safe. */
    void
    addWallNs(uint64_t ns)
    {
        wall_ns_.fetch_add(ns, std::memory_order_relaxed);
    }
    void
    addWork(uint64_t sim_refs)
    {
        sim_refs_.fetch_add(sim_refs, std::memory_order_relaxed);
    }

    /** Merge every thread's totals into a digest. Emitting threads
     *  must be quiesced (joined or past their ProfScope). */
    ProfSnapshot snapshot() const;

    /** Zero all thread totals and gauges (states stay registered). */
    void reset();

  private:
    /** Guards the thread-state registry. The states' totals are NOT
     *  guarded: each ProfThreadState is written lock-free by exactly
     *  one thread; snapshot() reads them under the quiesce contract
     *  above (merge-on-report, DESIGN.md §11/§13). */
    mutable Mutex mu_;
    /** Insertion-ordered so merge order is deterministic. */
    std::vector<std::unique_ptr<ProfThreadState>> states_ GUARDED_BY(mu_);
    std::map<std::thread::id, ProfThreadState *> by_thread_ GUARDED_BY(mu_);
    std::atomic<uint64_t> wall_ns_{0};
    std::atomic<uint64_t> sim_refs_{0};
};

namespace prof_detail {

/** The runtime gate: the thread's active profiler and its cached
 *  thread state. Null state = every ScopedTimer is a no-op. */
struct ProfTls
{
    Profiler *prof = nullptr;
    ProfThreadState *state = nullptr;
};

inline thread_local ProfTls g_prof_tls;

} // namespace prof_detail

/** The thread's active profiler (null = profiling off). */
inline Profiler *
currentProfiler()
{
    return prof_detail::g_prof_tls.prof;
}

/**
 * RAII activation: makes @p prof the calling thread's active profiler
 * for the scope's lifetime (null deactivates). Each worker thread of
 * a multi-threaded driver opens its own ProfScope on the shared
 * Profiler; snapshot() then merges the per-thread states.
 */
class ProfScope
{
  public:
    explicit ProfScope(Profiler *prof)
        : prev_(prof_detail::g_prof_tls)
    {
        prof_detail::g_prof_tls.prof = prof;
        prof_detail::g_prof_tls.state =
            prof != nullptr ? prof->threadState() : nullptr;
    }
    ~ProfScope() { prof_detail::g_prof_tls = prev_; }
    ProfScope(const ProfScope &) = delete;
    ProfScope &operator=(const ProfScope &) = delete;

  private:
    prof_detail::ProfTls prev_;
};

/**
 * RAII phase timer. With no active profiler the constructor is one
 * thread-local load and a branch; with one it records steady_clock on
 * entry and on exit charges the elapsed time inclusively to its phase
 * and as child time to the enclosing open scope (whose exclusive time
 * shrinks accordingly). Self-nesting (recursion) double-counts
 * inclusive time, as profilers conventionally do; exclusive time
 * stays exact.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(ProfPhase phase)
    {
        ProfThreadState *st = prof_detail::g_prof_tls.state;
        if (st == nullptr)
            return;
        st_ = st;
        phase_ = phase;
        parent_ = st->top;
        st->top = this;
        start_ns_ = profNowNs();
    }

    ~ScopedTimer()
    {
        if (st_ == nullptr)
            return;
        uint64_t elapsed = profNowNs() - start_ns_;
        ProfPhaseTotals &t = st_->totals[size_t(phase_)];
        ++t.calls;
        t.incl_ns += elapsed;
        t.excl_ns += elapsed > child_ns_ ? elapsed - child_ns_ : 0;
        st_->top = parent_;
        if (parent_ != nullptr)
            parent_->child_ns_ += elapsed;
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    ProfThreadState *st_ = nullptr;
    ScopedTimer *parent_ = nullptr;
    uint64_t start_ns_ = 0;
    uint64_t child_ns_ = 0;
    ProfPhase phase_ = ProfPhase::kCount;
};

} // namespace compresso

/**
 * Emission macro: the compile-time gate. Expands to a block-scoped
 * RAII timer; building with COMPRESSO_PROF_DISABLED removes the site
 * entirely (the zero-overhead guard in tests/test_prof relies on it).
 */
#ifndef COMPRESSO_PROF_DISABLED
#define CPR_PROF_CONCAT2(a, b) a##b
#define CPR_PROF_CONCAT(a, b) CPR_PROF_CONCAT2(a, b)
#define CPR_PROF_SCOPE(phase)                                           \
    ::compresso::ScopedTimer CPR_PROF_CONCAT(cpr_prof_scope_,           \
                                             __LINE__)(phase)
#else
#define CPR_PROF_SCOPE(phase) ((void)0)
#endif

#endif // COMPRESSO_PROF_PROFILER_H
