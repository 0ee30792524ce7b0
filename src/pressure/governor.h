/**
 * @file
 * PressureGovernor: the watermark-driven memory-pressure state machine
 * (DESIGN.md §14).
 *
 * The paper's OOM story (Sec. V-B) is a single watermark: when free
 * machine memory drops below a reserve, the balloon driver inflates.
 * That is fine in steady state but has two failure tails this module
 * closes:
 *
 *  - **Compressibility collapse**: pages turning incompressible both
 *    consume chunks *and* generate relocation/repack storms. The
 *    governor tracks the free-chunk fraction against four watermark
 *    levels (normal -> elevated -> critical -> emergency, with
 *    hysteresis on the way back down) and throttles admission of
 *    *optional* maintenance work as pressure rises: inflation-room
 *    growth is bounded per window at elevated and denied at
 *    critical+; repacking and cold-demotion are denied at critical+.
 *    Denial is always safe — these paths have bounded fallbacks.
 *
 *  - **Machine OOM inside an operation**: an allocation that finds no
 *    chunk invokes onMachineOom(). The governor performs *emergency
 *    targeted ballooning*: it asks the OS for its coldest pages,
 *    filters out the busy page (live on the caller's stack) and any
 *    page the controller reports busy, ranks the remainder by
 *    compressed footprint (most-compressible first: under a collapse
 *    those are the cold cheap ones) and demands exactly those victims
 *    from the balloon driver. The controller then retries the
 *    allocation once — OOM becomes a bounded, observable rescue
 *    instead of a failure.
 *
 * A Watchdog (watchdog.h) enforces per-operation stall budgets: an op
 * class that blows its deadline gets a deterministic denial window,
 * escalating the degradation ladder instead of stalling unboundedly.
 *
 * Determinism: levels, admissions, and victim ranking depend only on
 * simulated state (chunk counts, device-op costs, LRU order) — never
 * on host time. All ranking ties break on page number.
 */

#ifndef COMPRESSO_PRESSURE_GOVERNOR_H
#define COMPRESSO_PRESSURE_GOVERNOR_H

#include <cstdint>

#include "core/memory_controller.h"
#include "core/pressure_hooks.h"
#include "obs/observer.h"
#include "os/balloon.h"
#include "os/sim_os.h"
#include "pressure/watchdog.h"

namespace compresso {

enum class PressureLevel : uint8_t
{
    kNormal = 0,
    kElevated,
    kCritical,
    kEmergency,
};

/** Stable lowercase name of @p level. */
const char *pressureLevelName(PressureLevel level);

struct GovernorConfig
{
    /** Installed machine chunks (installed_bytes / kChunkBytes);
     *  required. */
    uint64_t total_chunks = 0;
    /** Device ops between watermark re-polls (and the admission
     *  window length). */
    uint64_t poll_interval_ops = 4096;
    /** Inflation-room growths admitted per poll window at elevated. */
    uint64_t elevated_inflation_window = 32;
    /** Victims demanded per emergency ballooning round. */
    uint64_t emergency_reclaim_pages = 16;
    /** Cold candidates examined per round (bounded victim search). */
    uint64_t candidate_scan = 128;
    WatchdogConfig watchdog{};
};

class PressureGovernor : public PressureListener
{
  public:
    /** Wires itself into @p mc (attachPressureListener) and @p os
     *  (setOverrunCallback). The governor must outlive both uses. */
    PressureGovernor(const GovernorConfig &cfg, MemoryController &mc,
                     SimOs &os, BalloonDriver &balloon);

    /** Observability: kPressureLevel / kOomRescue / kSwapFull /
     *  kWatchdogBreach / kOpThrottled events. When the observer
     *  carries a flight recorder, also registers a post-mortem context
     *  provider (governor counters + per-op watchdog digests) and
     *  feeds the watermark history on every level change. Null
     *  detaches the event stream (providers cannot be unregistered:
     *  the governor must outlive the recorder's snapshots). */
    void attachObserver(Observer *obs);

    // --- PressureListener ---
    bool onMachineOom(PageNum busy_page) override;
    bool admitOp(PressureOp op, uint64_t est_ops) override;
    void onOpCost(PressureOp op, uint64_t ops) override;

    PressureLevel level() const { return level_; }

    /** Re-derive the level from the current free-chunk fraction
     *  (called automatically every poll_interval_ops of reported
     *  cost, on every OOM, and on OS budget overruns). */
    void poll();

    /** Current free chunks (total minus the controller's data use). */
    uint64_t freeChunks() const;
    double freeFraction() const;

    Watchdog &watchdog() { return watchdog_; }
    const Watchdog &watchdog() const { return watchdog_; }

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

  private:
    PressureLevel levelFor(double free_frac) const;
    void setLevel(PressureLevel lvl);
    /** Targeted emergency ballooning; @return chunks actually freed. */
    uint64_t emergencyReclaim(PageNum busy_page);
    void onOsOverrun();

    GovernorConfig cfg_;
    MemoryController &mc_;
    SimOs &os_;
    BalloonDriver &balloon_;
    Watchdog watchdog_;
    Observer *obs_ = nullptr;

    PressureLevel level_ = PressureLevel::kNormal;
    uint64_t ops_since_poll_ = 0;
    uint64_t window_inflations_ = 0;
    bool in_rescue_ = false; ///< reentrancy guard for onMachineOom

    StatGroup stats_{"pressure"};
    uint64_t &st_level_changes_ = stats_.stat("level_changes");
    uint64_t &st_polls_ = stats_.stat("polls");
    uint64_t &st_oom_events_ = stats_.stat("oom_events");
    uint64_t &st_oom_rescued_ = stats_.stat("oom_rescued");
    uint64_t &st_oom_unrescued_ = stats_.stat("oom_unrescued");
    uint64_t &st_emergency_pages_ = stats_.stat("emergency_pages");
    uint64_t &st_emergency_chunks_ = stats_.stat("emergency_chunks");
    uint64_t &st_admits_ = stats_.stat("admits");
    uint64_t &st_denied_level_ = stats_.stat("denied_level");
    uint64_t &st_denied_watchdog_ = stats_.stat("denied_watchdog");
    uint64_t &st_denied_window_ = stats_.stat("denied_window");
    uint64_t &st_os_overruns_ = stats_.stat("os_overruns");
};

} // namespace compresso

#endif // COMPRESSO_PRESSURE_GOVERNOR_H
