/**
 * @file
 * FlightRecorder: anomaly-triggered post-mortem diagnostic bundles
 * (DESIGN.md §16).
 *
 * The watchdog, PressureGovernor, fault ladder, conservation check and
 * invariant auditor all *detect* anomalies but historically only
 * bumped a counter (or aborted), discarding the trace/histogram/audit
 * state that explains *why*. The FlightRecorder closes that gap: it
 * rides on the Observer (same two-level gate — COMPRESSO_OBS_DISABLED
 * compiles it out entirely, `Observer::flightRecorder()` is null at
 * runtime unless obs is enabled), watches the anomaly event kinds as
 * they flow through `Observer::record()`, and on a trigger atomically
 * snapshots a PostmortemBundle: the last-N trace-ring entries with
 * their PR-8 component tags, the per-component latency digests, the
 * accumulated watermark history, registered context sections
 * (governor/watchdog state via provider callbacks), run-context notes,
 * and the deduplicated trigger chain that led here.
 *
 * Bounded overhead by construction: the trigger chain merges
 * consecutive same-(kind, detail) entries and caps its length, bundle
 * snapshots are rate-limited (first trigger always snapshots, then one
 * per `rearm_triggers`; `force` bypasses the re-arm for must-capture
 * moments like chaos storms) and capped at `max_bundles`; everything
 * past the caps is counted, never silently lost.
 *
 * Determinism discipline: bundle content is a pure function of
 * simulated state — ticks come from the Observer's monotonic simulated
 * clock, never host time — so per-job recorders merged in job-index
 * order produce byte-identical exports at any `--jobs N`.
 *
 * Thread safety (DESIGN.md §13): internally synchronized (all mutable
 * state GUARDED_BY mu_) like the EventTracer, so the future
 * multi-tenant daemon can trigger from any simulated machine's thread.
 * Provider callbacks run under the recorder's lock at snapshot time:
 * keep them short, read-only, and never call back into the recorder.
 */

#ifndef COMPRESSO_OBS_FLIGHT_RECORDER_H
#define COMPRESSO_OBS_FLIGHT_RECORDER_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/sync.h"
#include "common/thread_annotations.h"
#include "obs/attrib.h"
#include "obs/event_tracer.h"

namespace compresso {

/** Anomaly taxonomy: every source that can demand a post-mortem.
 *  Keep postmortemTriggerName() (and tools/obs_report.py's TRIGGERS
 *  vocabulary) in sync. */
enum class PostmortemTrigger : uint8_t
{
    kWatchdogBreach = 0, ///< op blew its stall budget (detail = op)
    kOpThrottled,        ///< admission denied: watchdog denial window
                         ///< or governor level shed (detail = op)
    kPressureCritical,   ///< governor entered critical
    kPressureEmergency,  ///< governor entered emergency
    kOomRescue,          ///< machine OOM rescued by emergency reclaim
    kSwapFull,           ///< swap exhausted / OS budget overrun
    kFaultLadder,        ///< ladder escalated past metadata rebuild
                         ///< (detail = FaultRung)
    kConservation,       ///< attribution conservation failure
    kAuditViolation,     ///< invariant audit found violations
    kChaosStorm,         ///< chaos harness phase marker (detail =
                         ///< ChaosScenario)
    kCrossPartition,     ///< tenant-scoped reclaim touched a page
                         ///< outside the calling tenant's partition
                         ///< (detail = tenant id, DESIGN.md §17)
    kCount
};

/** Stable lowercase name of @p t ("watchdog_breach", ...). */
const char *postmortemTriggerName(PostmortemTrigger t);

/** Tuning knobs; the ObsConfig postmortem_* fields map onto these. */
struct FlightRecorderConfig
{
    /** Newest trace-ring events copied into each bundle. */
    size_t ring_snapshot = 256;
    /** Bundle snapshots retained per recorder (hard overhead cap). */
    size_t max_bundles = 8;
    /** Trigger-chain length cap; merged entries don't count twice. */
    size_t chain_capacity = 64;
    /** Triggers between non-forced snapshots (the first trigger
     *  always snapshots; `force` bypasses the re-arm). */
    uint64_t rearm_triggers = 256;
    /** Watermark-history entries retained (oldest dropped first). */
    size_t watermark_capacity = 64;
};

/** One deduplicated step of the chain that led to a bundle:
 *  consecutive triggers with the same (kind, detail) merge into one
 *  entry with a count and a tick range. */
struct PostmortemTriggerEntry
{
    PostmortemTrigger kind = PostmortemTrigger::kCount;
    uint64_t first_tick = 0;
    uint64_t last_tick = 0;
    uint64_t page = 0;   ///< page of the first merged trigger
    uint32_t detail = 0; ///< trigger-specific payload
    uint64_t count = 1;  ///< merged occurrences
};

/** One trace-ring event carried in a bundle (value copy, so the
 *  bundle survives the Observer). The component tag is derived at
 *  export time via obsEventComp(). */
struct PostmortemRingEvent
{
    uint64_t tick = 0;
    uint64_t page = 0;
    uint32_t detail = 0;
    ObsEvent kind = ObsEvent::kSplitAccess;
};

/** One governor watermark transition (noteLevel). */
struct PostmortemWatermark
{
    uint64_t tick = 0;
    uint32_t level = 0;        ///< PressureLevel ordinal
    uint32_t free_permille = 0; ///< free-chunk fraction * 1000
};

/**
 * Value-type diagnostic bundle, snapshotted atomically at trigger
 * time. Serialized as one "compresso-postmortem-v1" document by
 * src/sim/postmortem_export.h. Generic `sections`/`notes` keep the
 * obs layer free of upward dependencies: the pressure/sim layers fill
 * them through provider callbacks and setNote().
 */
struct PostmortemBundle
{
    uint64_t index = 0; ///< bundle ordinal within this recorder
    uint64_t tick = 0;  ///< simulated time of the snapshot

    /** The trigger that took this snapshot. */
    PostmortemTrigger trigger = PostmortemTrigger::kCount;
    uint64_t trigger_page = 0;
    uint32_t trigger_detail = 0;

    uint64_t triggers_total = 0;     ///< all triggers so far
    uint64_t triggers_suppressed = 0; ///< rate-limited (no snapshot)

    std::vector<PostmortemTriggerEntry> chain; ///< oldest first
    uint64_t chain_dropped = 0; ///< triggers past chain_capacity

    std::vector<PostmortemRingEvent> ring; ///< newest last
    uint64_t ring_total = 0;   ///< tracer lifetime event count
    uint64_t ring_dropped = 0; ///< tracer wraparound losses

    /** Per-component latency digests (PR-8 attribution); enabled ==
     *  false when the run had no attributor. */
    AttribSnapshot attrib;

    std::vector<PostmortemWatermark> watermarks; ///< oldest first
    uint64_t watermarks_dropped = 0;

    /** Provider-filled counter sections ("governor", "watchdog_*").
     *  std::map: sorted, hence deterministic export order. */
    std::map<std::string, std::map<std::string, uint64_t>> sections;
    /** Run context (label, seed, workloads, audit summary, ...). */
    std::map<std::string, std::string> notes;
};

class FlightRecorder
{
  public:
    /** Context callback filling bundle sections at snapshot time.
     *  Runs under the recorder lock: short, read-only, no re-entry. */
    using Provider = std::function<void(PostmortemBundle &)>;

    /** @p now / @p tracer / @p attrib are non-owning and may be null
     *  (tick 0, empty ring, attrib.enabled false). The pointees must
     *  outlive the recorder — the Observer owns all four. */
    FlightRecorder(const FlightRecorderConfig &cfg,
                   const std::atomic<uint64_t> *now,
                   const EventTracer *tracer,
                   const CycleAttributor *attrib);

    const FlightRecorderConfig &config() const { return cfg_; }

    /** Observer::record() tap: maps anomaly event kinds onto triggers
     *  (watchdog breaches, denials, critical/emergency transitions,
     *  OOM rescues, swap exhaustion, fault-ladder escalations past
     *  metadata rebuild). Benign kinds are ignored. */
    void onEvent(ObsEvent kind, uint64_t page, uint32_t detail);

    /** Record an anomaly; snapshots a bundle unless rate-limited.
     *  @p force bypasses the re-arm (not the max_bundles cap). */
    void trigger(PostmortemTrigger kind, uint64_t page, uint32_t detail,
                 bool force = false);

    /** Append a governor watermark transition (bounded history). */
    void noteLevel(uint32_t level, uint32_t free_permille);

    /** Set a run-context note copied into every later bundle. */
    void setNote(const std::string &key, const std::string &value);

    /** Register a context provider invoked at every snapshot. */
    void addProvider(Provider p);

    uint64_t
    triggersTotal() const
    {
        MutexLock lk(mu_);
        return triggers_total_;
    }
    uint64_t
    suppressed() const
    {
        MutexLock lk(mu_);
        return suppressed_;
    }
    size_t
    bundleCount() const
    {
        MutexLock lk(mu_);
        return bundles_.size();
    }

    /** Copy of the retained bundles (oldest first). Safe any time;
     *  for a finished run's full set, quiesce triggers first. */
    std::vector<PostmortemBundle> bundles() const;

  private:
    void snapshotLocked(PostmortemTrigger kind, uint64_t page,
                        uint32_t detail) REQUIRES(mu_);
    uint64_t
    nowTick() const
    {
        return now_ != nullptr
                   ? now_->load(std::memory_order_relaxed)
                   : 0;
    }

    const FlightRecorderConfig cfg_;
    const std::atomic<uint64_t> *now_; ///< Observer's simulated clock
    const EventTracer *tracer_;
    const CycleAttributor *attrib_;

    mutable Mutex mu_;
    std::vector<PostmortemTriggerEntry> chain_ GUARDED_BY(mu_);
    uint64_t chain_dropped_ GUARDED_BY(mu_) = 0;
    std::vector<PostmortemWatermark> marks_ GUARDED_BY(mu_);
    uint64_t marks_dropped_ GUARDED_BY(mu_) = 0;
    std::map<std::string, std::string> notes_ GUARDED_BY(mu_);
    std::vector<Provider> providers_ GUARDED_BY(mu_);
    std::vector<PostmortemBundle> bundles_ GUARDED_BY(mu_);
    uint64_t triggers_total_ GUARDED_BY(mu_) = 0;
    uint64_t suppressed_ GUARDED_BY(mu_) = 0;
    /** triggers_total_ at the last snapshot (re-arm reference). */
    uint64_t last_snapshot_trigger_ GUARDED_BY(mu_) = 0;
};

} // namespace compresso

#endif // COMPRESSO_OBS_FLIGHT_RECORDER_H
