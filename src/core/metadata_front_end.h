/**
 * @file
 * MetadataFrontEnd: the metadata path shared by the three compressed
 * controllers (Sec. IV-B5, DESIGN.md §9).
 *
 * Compresso, LCP and RMC reach each page through one 64 B entry
 * (RMC's Block Size Table entry) at region_base + page * 64, cached on
 * chip. The front end owns that cache, the entry's traffic (the
 * critical fetch on a miss, the write of an evicted dirty entry) and
 * the ladder a detected entry fault walks: poison with recovery off;
 * else a watchdog-admitted rebuild and rewrite, and past
 * max_meta_rebuilds a raw re-layout. The controller supplies what
 * depends on its layout through Hooks. Counts into the controller's
 * `mc` stat group.
 */

#ifndef COMPRESSO_CORE_METADATA_FRONT_END_H
#define COMPRESSO_CORE_METADATA_FRONT_END_H

#include <array>
#include <cstdint>
#include <unordered_map>

#include "common/stats.h"
#include "common/types.h"
#include "core/chunk_store.h"
#include "core/memory_controller.h"
#include "core/pressure_hooks.h"
#include "fault/fault_hooks.h"
#include "meta/metadata_cache.h"
#include "obs/attrib.h"
#include "obs/observer.h"

namespace compresso {

class MetadataFrontEnd
{
  public:
    /** What the ladder may do to a page: poison it if it is mapped,
     *  inflate it if it holds data that is not laid out raw. */
    struct PageState
    {
        bool mapped;
        bool inflatable;
    };

    /** What differs between the controllers' metadata paths. */
    class Hooks
    {
      public:
        virtual PageState mdPageState(PageNum page) const = 0;
        /** 64 B ops a rebuild asks the watchdog for. */
        virtual uint64_t mdRewalkEstimate(PageNum) const { return 1; }
        /** A rebuild's hardware re-walk of the stored page, under the
         *  rebuild's suppress scope. The OS-aware designs rebuild
         *  from the OS's own tables and issue none. */
        virtual void mdRewalk(PageNum, McTrace &) {}
        /** The safety rung: re-lay an inflatable page out raw, so its
         *  slots no longer depend on the entry. */
        virtual void mdInflate(PageNum page, McTrace &trace) = 0;
        /** After an evicted entry's write (repack-on-evict). */
        virtual void mdEvicted(PageNum, McTrace &) {}

      protected:
        ~Hooks() = default;
    };

    struct Params
    {
        Addr region_base = 0;
        AttribComp hit_comp = AttribComp::kMdcacheHit;
        AttribComp miss_comp = AttribComp::kMdcacheMiss; ///< entry traffic
        /** OS-aware designs: a rebuild is an OS page fault (osFault);
         *  otherwise the hardware rebuilds the entry. */
        bool os_aware = false;
        /** A throttled rebuild skips the entry rewrite too. */
        bool throttle_skips_rewrite = false;
    };

    /** OS page-fault handling cost (~3 us), the core's stall for every
     *  OS page fault of the OS-aware designs. */
    static constexpr Cycle kOsFaultCycles = 9000;

    /** Registers md_read_ops, fault_poison_fills, fault_dropped_wbs
     *  (and page_faults, page_fault_cycles when os_aware is set);
     *  md_write_ops, pages_freed and the other fault_* counters
     *  appear on first use. */
    MetadataFrontEnd(const MetadataCacheConfig &cache, const Params &params,
                     Hooks &hooks, StatGroup &stats, FaultHooks &fault);
    MetadataFrontEnd(const MetadataFrontEnd &) = delete;
    MetadataFrontEnd &operator=(const MetadataFrontEnd &) = delete;

    /**
     * One controller operation on @p page (kNoPage: on no page in
     * particular). Entries evicted in its extent are written into its
     * trace; outside any operation nothing is. Operations nest
     * (Compresso's writeback -> evict -> repack), and while one is
     * live its page's entry is held by a caller frame: busy().
     */
    class Op
    {
      public:
        Op(MetadataFrontEnd &md, McTrace &trace, PageNum page)
            : md_(md), prev_trace_(md.trace_), page_(page)
        {
            md.trace_ = &trace;
            if (page == kNoPage)
                return;
            if (md.depth_ < kBusyDepth)
                md.busy_[md.depth_] = page;
            ++md.depth_;
        }
        ~Op()
        {
            md_.trace_ = prev_trace_;
            if (page_ != kNoPage)
                --md_.depth_;
        }
        Op(const Op &) = delete;
        Op &operator=(const Op &) = delete;

      private:
        MetadataFrontEnd &md_;
        McTrace *prev_trace_;
        PageNum page_;
    };

    /** True while an Op on @p page is live: emergency reclaim must not
     *  free it. */
    bool
    busy(PageNum page) const
    {
        for (unsigned i = 0; i < depth_ && i < kBusyDepth; ++i)
            if (busy_[i] == page)
                return true;
        return false;
    }
    /** Who an allocation asks on machine OOM: the listener, sparing
     *  the innermost Op's page. Nested deeper than kBusyDepth, busy()
     *  no longer covers every live page, so no rescue is tried. */
    OomRescue
    oomRescue() const
    {
        if (depth_ > kBusyDepth)
            return {};
        return {pressure_, depth_ > 0 ? busy_[depth_ - 1] : kNoPage};
    }

    /**
     * The entry lookup a fill (@p write false) or writeback of the
     * line at @p addr starts with (@p half: the entry's first 32 B
     * suffice, Sec. IV-B5). A miss fetches the entry on the critical
     * path, where a detected fault enters the ladder. Returns false
     * if the ladder has retired the target: a fill serves zeros (the
     * line or its page is poisoned), a writeback is dropped (the page
     * is, until freePage remaps it). A writeback that proceeds heals
     * its line's poison.
     */
    bool access(Addr addr, bool write, McTrace &trace, bool half = false);

    /** An OS page fault of an OS-aware design: counted, and the core
     *  stalls kOsFaultCycles. A rebuild takes one, as do LCP's page
     *  overflow and RMC's page re-allocation. */
    void osFault(McTrace &trace);

    /** Retire @p page (counted once): fills read zero, writebacks
     *  drop, until freePage. */
    void poisonPage(PageNum page);

    /** freePage's shared half: drop the cached entry, the page's
     *  poison and rebuild count, and count the free. */
    void release(PageNum page);

    void
    attachObserver(Observer *obs)
    {
        obs_ = obs;
        cache_.attachObserver(obs);
    }
    void attachPressureListener(PressureListener *pl) { pressure_ = pl; }

    MetadataCache &cache() { return cache_; }

  private:
    Addr entryAddr(PageNum page) const
    {
        return params_.region_base + page * kMetadataEntryBytes;
    }
    void onEvict(PageNum page, bool dirty);
    void recover(PageNum page, McTrace &trace);
    void countEntryWrite();

    MetadataCache cache_;
    Params params_;
    Hooks &hooks_;
    StatGroup &stats_;
    FaultHooks &fault_;
    PressureListener *pressure_ = nullptr;
    Observer *obs_ = nullptr;
    McTrace *trace_ = nullptr; ///< the innermost Op's
    static constexpr unsigned kBusyDepth = 4;
    std::array<PageNum, kBusyDepth> busy_{}; ///< live Ops' pages
    unsigned depth_ = 0;
    /** Rebuilds taken per page (the escalation bound). */
    std::unordered_map<PageNum, unsigned> rebuilds_;

    uint64_t &st_md_read_ops_;
    uint64_t &st_fault_poison_fills_;
    uint64_t &st_fault_dropped_wbs_;
    uint64_t *st_md_write_ops_ = nullptr; ///< taken on first write
    uint64_t *st_page_faults_ = nullptr;
    uint64_t *st_page_fault_cycles_ = nullptr;
};

} // namespace compresso

#endif // COMPRESSO_CORE_METADATA_FRONT_END_H
