#include "core/metadata_front_end.h"

#include "fault/fault_injector.h"

namespace compresso {

namespace {

/** Metadata cache (RMC: Block Size Table) hit latency, every
 *  controller (Tab. III). */
constexpr Cycle kHitLatency = 2;

} // namespace

MetadataFrontEnd::MetadataFrontEnd(const MetadataCacheConfig &cache,
                                   const Params &params, Hooks &hooks,
                                   StatGroup &stats, FaultHooks &fault)
    : cache_(cache),
      params_(params),
      hooks_(hooks),
      stats_(stats),
      fault_(fault),
      st_md_read_ops_(stats.stat("md_read_ops")),
      st_fault_poison_fills_(stats.stat("fault_poison_fills")),
      st_fault_dropped_wbs_(stats.stat("fault_dropped_wbs"))
{
    if (params_.os_aware) {
        st_page_faults_ = &stats.stat("page_faults");
        st_page_fault_cycles_ = &stats.stat("page_fault_cycles");
    }
    cache_.setEvictHook(
        [this](PageNum page, bool dirty) { onEvict(page, dirty); });
}

void
MetadataFrontEnd::countEntryWrite()
{
    if (st_md_write_ops_ == nullptr)
        st_md_write_ops_ = &stats_.stat("md_write_ops");
    ++*st_md_write_ops_;
}

bool
MetadataFrontEnd::access(Addr addr, bool write, McTrace &trace, bool half)
{
    const PageNum page = pageOf(addr);
    bool hit = cache_.access(page, half, write);
    trace.metadata_hit = hit;
    trace.addFixed(params_.hit_comp, kHitLatency);
    if (!hit) {
        trace.add(entryAddr(page), false, true, params_.miss_comp);
        ++st_md_read_ops_;
        if (fault_.active() &&
            fault_.onMetaRead(entryAddr(page)) == FaultOutcome::kDetected)
            recover(page, trace);
    }
    if (!fault_.active())
        return true;
    if (write) {
        if (fault_.pagePoisoned(page)) {
            ++st_fault_dropped_wbs_;
            return false;
        }
        fault_.clearLinePoison(lineAddr(addr));
        return true;
    }
    if (fault_.pagePoisoned(page) || fault_.linePoisoned(lineAddr(addr))) {
        ++st_fault_poison_fills_;
        return false;
    }
    return true;
}

void
MetadataFrontEnd::onEvict(PageNum page, bool dirty)
{
    if (trace_ == nullptr)
        return;
    if (dirty) {
        trace_->add(entryAddr(page), true, false, params_.miss_comp);
        countEntryWrite();
        fault_.onWrite(entryAddr(page));
    }
    hooks_.mdEvicted(page, *trace_);
}

void
MetadataFrontEnd::recover(PageNum page, McTrace &trace)
{
    FaultInjector *fi = fault_.injector();
    if (!fault_.recoveryEnabled()) {
        // Nothing rebuilds the page's mapping: retire the page.
        if (hooks_.mdPageState(page).mapped)
            poisonPage(page);
        fi->scrub(entryAddr(page));
        return;
    }

    // A blown rebuild budget (watchdog breach) skips the rebuild and
    // takes the safety rung directly: this entry's rebuilds are what
    // is stalling the machine.
    bool throttled =
        pressure_ != nullptr &&
        !pressure_->admitOp(PressureOp::kMetaRebuild,
                            hooks_.mdRewalkEstimate(page));
    if (throttled) {
        ++stats_["fault_rebuilds_throttled"];
        CPR_OBS_EVENT(obs_, ObsEvent::kOpThrottled, page,
                      uint32_t(PressureOp::kMetaRebuild));
    } else {
        ++stats_["fault_meta_rebuilds"];
        CPR_OBS_EVENT(obs_, ObsEvent::kFaultRecovery, page,
                      uint32_t(FaultRung::kMetaRebuild));
        fi->noteMetaRebuild();
    }
    if (params_.os_aware)
        osFault(trace);
    size_t before = trace.ops.size();
    {
        // Repair traffic cannot fault recursively.
        FaultHooks::SuppressScope guard(fault_);
        if (!throttled)
            hooks_.mdRewalk(page, trace);
        if (!throttled || !params_.throttle_skips_rewrite) {
            trace.add(entryAddr(page), true, false,
                      AttribComp::kFaultRecovery);
            countEntryWrite();
        }
        const unsigned max_rebuilds = fi->config().max_meta_rebuilds;
        unsigned rebuilds = throttled ? (rebuilds_[page] = max_rebuilds + 1)
                                      : ++rebuilds_[page];
        if (rebuilds > max_rebuilds && hooks_.mdPageState(page).inflatable) {
            ++stats_["fault_pages_inflated"];
            CPR_OBS_EVENT(obs_, ObsEvent::kFaultRecovery, page,
                          uint32_t(FaultRung::kInflateSafety));
            fi->notePageInflatedSafety();
            hooks_.mdInflate(page, trace);
            rebuilds_.erase(page);
        }
    }
    fi->scrub(entryAddr(page));
    uint64_t ops = trace.ops.size() - before;
    fi->noteRecoveryOps(ops);
    stats_["fault_recovery_ops"] += ops;
    if (pressure_ != nullptr)
        pressure_->onOpCost(PressureOp::kMetaRebuild, ops);
}

void
MetadataFrontEnd::osFault(McTrace &trace)
{
    ++*st_page_faults_;
    *st_page_fault_cycles_ += kOsFaultCycles;
    trace.addStall(AttribComp::kOsFault, kOsFaultCycles);
}

void
MetadataFrontEnd::poisonPage(PageNum page)
{
    if (fault_.pagePoisoned(page))
        return;
    fault_.poisonPage(page);
    ++stats_["fault_pages_poisoned"];
    CPR_OBS_EVENT(obs_, ObsEvent::kFaultRecovery, page,
                  uint32_t(FaultRung::kPagePoison));
}

void
MetadataFrontEnd::release(PageNum page)
{
    cache_.invalidate(page);
    fault_.clearPagePoison(page);
    rebuilds_.erase(page);
    ++stats_["pages_freed"];
}

} // namespace compresso
