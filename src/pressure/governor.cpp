#include "pressure/governor.h"

#include <algorithm>
#include <cassert>
#include <vector>

namespace compresso {

namespace {

// Free-fraction watermarks: the level is the highest whose bound the
// free fraction sits below.
constexpr double kElevatedFree = 0.25;
constexpr double kCriticalFree = 0.10;
constexpr double kEmergencyFree = 0.03;
/** Extra free fraction required to *leave* a level (hysteresis, so
 *  the level does not flap at a watermark). */
constexpr double kHysteresis = 0.02;

} // namespace

const char *
pressureLevelName(PressureLevel level)
{
    switch (level) {
    case PressureLevel::kNormal: return "normal";
    case PressureLevel::kElevated: return "elevated";
    case PressureLevel::kCritical: return "critical";
    case PressureLevel::kEmergency: return "emergency";
    }
    return "?";
}

void
PressureGovernor::attachObserver(Observer *obs)
{
    obs_ = obs;
    if (obs_ == nullptr)
        return;
    FlightRecorder *fr = obs_->flightRecorder();
    if (fr == nullptr)
        return;
    // Post-mortem context provider: governor state and per-op-class
    // watchdog stall digests at snapshot time. Runs under the
    // recorder's lock — read-only and allocation-light by design.
    fr->addProvider([this](PostmortemBundle &b) {
        std::map<std::string, uint64_t> &gov = b.sections["governor"];
        gov["level"] = uint64_t(level_);
        gov["free_chunks"] = freeChunks();
        gov["free_permille"] = uint64_t(freeFraction() * 1000.0);
        for (const auto &[name, val] : stats_.counters())
            gov[name] = val;
        for (size_t i = 0; i < size_t(PressureOp::kCount); ++i) {
            PressureOp op = PressureOp(i);
            Watchdog::Digest d = watchdog_.digest(op);
            std::map<std::string, uint64_t> &s =
                b.sections[std::string("watchdog_") + pressureOpName(op)];
            s["count"] = d.count;
            s["p50"] = d.p50;
            s["p99"] = d.p99;
            s["max"] = d.max;
            s["breaches"] = d.breaches;
        }
    });
}

PressureGovernor::PressureGovernor(const GovernorConfig &cfg,
                                   MemoryController &mc, SimOs &os,
                                   BalloonDriver &balloon)
    : cfg_(cfg), mc_(mc), os_(os), balloon_(balloon),
      watchdog_(cfg.watchdog)
{
    assert(cfg_.total_chunks > 0 && "governor needs the machine size");
    mc_.attachPressureListener(this);
    os_.setOverrunCallback([this] { onOsOverrun(); });
    poll();
}

uint64_t
PressureGovernor::freeChunks() const
{
    uint64_t used = mc_.mpaDataBytes() / kChunkBytes;
    return used >= cfg_.total_chunks ? 0 : cfg_.total_chunks - used;
}

double
PressureGovernor::freeFraction() const
{
    return cfg_.total_chunks == 0
               ? 1.0
               : double(freeChunks()) / double(cfg_.total_chunks);
}

PressureLevel
PressureGovernor::levelFor(double f) const
{
    // Hysteresis: leaving a level (rising free fraction) requires
    // clearing the watermark by an extra margin, so the level cannot
    // flap across a boundary.
    auto bound = [&](double mark, PressureLevel lvl) {
        return level_ >= lvl ? mark + kHysteresis : mark;
    };
    if (f < bound(kEmergencyFree, PressureLevel::kEmergency))
        return PressureLevel::kEmergency;
    if (f < bound(kCriticalFree, PressureLevel::kCritical))
        return PressureLevel::kCritical;
    if (f < bound(kElevatedFree, PressureLevel::kElevated))
        return PressureLevel::kElevated;
    return PressureLevel::kNormal;
}

void
PressureGovernor::setLevel(PressureLevel lvl)
{
    if (lvl == level_)
        return;
    level_ = lvl;
    ++st_level_changes_;
    ++stats_["level_" + std::string(pressureLevelName(lvl))];
    // Watermark first, event second: the recorder's critical/emergency
    // trigger then snapshots a history that includes this transition.
    if (obs_ != nullptr) {
        if (FlightRecorder *fr = obs_->flightRecorder())
            fr->noteLevel(uint32_t(lvl),
                          uint32_t(freeFraction() * 1000.0));
    }
    CPR_OBS_EVENT(obs_, ObsEvent::kPressureLevel, kNoPage,
                  uint32_t(lvl));
}

void
PressureGovernor::poll()
{
    ++st_polls_;
    ops_since_poll_ = 0;
    window_inflations_ = 0;
    setLevel(levelFor(freeFraction()));
}

void
PressureGovernor::onOsOverrun()
{
    // The OS could not evict safely (swap full, probed victims all
    // dirty) and is running over budget: record it and make sure the
    // machine side is treated as at least critical until pressure
    // measurably recedes.
    ++st_os_overruns_;
    CPR_OBS_EVENT(obs_, ObsEvent::kSwapFull, kNoPage, 0);
    if (level_ < PressureLevel::kCritical)
        setLevel(PressureLevel::kCritical);
}

bool
PressureGovernor::admitOp(PressureOp op, uint64_t est_ops)
{
    (void)est_ops; // admission is level/budget-driven; the estimate is
                   // informational (kept in the contract for policies
                   // that want cost-aware gating)
    if (watchdog_.denies(op)) {
        ++st_denied_watchdog_;
        CPR_OBS_EVENT(obs_, ObsEvent::kOpThrottled, kNoPage,
                      uint32_t(op));
        return false;
    }
    switch (op) {
    case PressureOp::kRepack:
        // Maintenance: pure optimization, first thing to shed.
        if (level_ >= PressureLevel::kCritical) {
            ++st_denied_level_;
            CPR_OBS_EVENT(obs_, ObsEvent::kOpThrottled, kNoPage,
                          uint32_t(op));
            return false;
        }
        break;
    case PressureOp::kInflation:
        // Inflation room / speculative growth: bounded per window at
        // elevated, denied outright at critical and above.
        if (level_ >= PressureLevel::kCritical) {
            ++st_denied_level_;
            CPR_OBS_EVENT(obs_, ObsEvent::kOpThrottled, kNoPage,
                          uint32_t(op));
            return false;
        }
        if (level_ == PressureLevel::kElevated) {
            if (window_inflations_ >= cfg_.elevated_inflation_window) {
                ++st_denied_window_;
                CPR_OBS_EVENT(obs_, ObsEvent::kOpThrottled, kNoPage,
                              uint32_t(op));
                return false;
            }
            ++window_inflations_;
        }
        break;
    case PressureOp::kRelocation:
    case PressureOp::kMetaRebuild:
        // Correctness-adjacent paths: only the watchdog denies these
        // (the denial escalates to the bounded safe state; doing that
        // on level alone would inflate pages needlessly).
        break;
    case PressureOp::kCount:
        break;
    }
    ++st_admits_;
    return true;
}

void
PressureGovernor::onOpCost(PressureOp op, uint64_t ops)
{
    if (watchdog_.onOpCost(op, ops)) {
        ++stats_["watchdog_breaches"];
        CPR_OBS_EVENT(obs_, ObsEvent::kWatchdogBreach, kNoPage,
                      uint32_t(op));
    }
    ops_since_poll_ += ops;
    if (ops_since_poll_ >= cfg_.poll_interval_ops)
        poll();
}

uint64_t
PressureGovernor::emergencyReclaim(PageNum busy_page)
{
    // Candidates: the OS's coldest resident pages, minus anything with
    // live references on the controller's call stack, minus pages that
    // back no chunks (freeing those cannot make progress).
    std::vector<PageNum> cand = os_.coldPages(cfg_.candidate_scan);
    std::vector<std::pair<uint64_t, PageNum>> ranked;
    ranked.reserve(cand.size());
    for (PageNum p : cand) {
        if (p == busy_page || mc_.pageBusy(p))
            continue;
        uint64_t bytes = mc_.pageCompressedBytes(p);
        if (bytes == 0)
            continue;
        ranked.emplace_back(bytes, p);
    }
    // Most-compressible first: under a collapse the cheap pages are
    // the cold ones, and each costs the OS least to give up. Ties
    // break on page number for determinism.
    std::sort(ranked.begin(), ranked.end());
    if (ranked.size() > cfg_.emergency_reclaim_pages)
        ranked.resize(cfg_.emergency_reclaim_pages);

    std::vector<PageNum> victims;
    victims.reserve(ranked.size());
    for (const auto &[bytes, p] : ranked)
        victims.push_back(p);

    uint64_t before = freeChunks();
    uint64_t pages = balloon_.inflateTargeted(victims);
    uint64_t freed = freeChunks() - before;
    st_emergency_pages_ += pages;
    st_emergency_chunks_ += freed;
    return freed;
}

bool
PressureGovernor::onMachineOom(PageNum busy_page)
{
    ++st_oom_events_;
    if (in_rescue_) {
        // freePage() inside the rescue cannot allocate, but keep the
        // guard: a reentrant OOM has nothing further to give.
        return false;
    }
    in_rescue_ = true;
    setLevel(PressureLevel::kEmergency);
    uint64_t freed = emergencyReclaim(busy_page);
    in_rescue_ = false;
    // Re-poll after the rescue so the level reflects the new free
    // fraction (it stays emergency/critical until hysteresis clears).
    poll();
    if (freed > 0) {
        ++st_oom_rescued_;
        CPR_OBS_EVENT(obs_, ObsEvent::kOomRescue, busy_page,
                      uint32_t(freed));
        return true;
    }
    ++st_oom_unrescued_;
    return false;
}

} // namespace compresso
