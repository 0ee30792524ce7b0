/**
 * @file
 * The memory controller's metadata cache (Sec. III / IV-B5).
 *
 * Set-associative, LRU, indexed by OSPA page number. Two features from
 * the paper:
 *
 *  - each entry carries the 2-bit saturating page-overflow-predictor
 *    counter (Sec. IV-B2);
 *  - the half-entry optimization (Sec. IV-B5): entries for pages whose
 *    second metadata half is unused (uncompressed pages) occupy half a
 *    way, doubling effective capacity for incompressible working sets.
 *
 * An eviction callback lets the controller use evictions as the
 * dynamic-repacking trigger (Sec. IV-B4).
 */

#ifndef COMPRESSO_META_METADATA_CACHE_H
#define COMPRESSO_META_METADATA_CACHE_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "obs/observer.h"

namespace compresso {

struct MetadataCacheConfig
{
    size_t size_bytes = 96 * 1024; ///< Tab. III: 96 KB
    unsigned ways = 8;
    bool half_entry_opt = true;    ///< Sec. IV-B5 toggle
};

class MetadataCache
{
  public:
    /** Called with the evicted page number and whether the cached entry
     *  was dirty (needs writing back to the MPA metadata region); the
     *  controller may use this as its repacking trigger. */
    using EvictHook = std::function<void(PageNum, bool dirty)>;

    explicit MetadataCache(const MetadataCacheConfig &cfg);

    /**
     * Look up @p page, inserting it (with weight by @p half) on miss.
     * @param half whether only the first 32 B of metadata are needed
     * @param dirty whether this access modifies the metadata entry
     * @return true on hit
     */
    bool access(PageNum page, bool half, bool dirty = false);

    /** True if present without touching LRU state. */
    bool contains(PageNum page) const;

    /** Drop @p page if present (no evict hook; used on page free). */
    void invalidate(PageNum page);

    /**
     * Re-classify a resident page as needing full/half metadata (e.g.,
     * a page transitioned compressed <-> uncompressed while hot).
     */
    void reshape(PageNum page, bool half);

    /** 2-bit local overflow predictor counter for a resident page;
     *  returns nullptr on miss. The pointer stays valid until the next
     *  access to the page's set. */
    uint8_t *predictorCounter(PageNum page);

    void setEvictHook(EvictHook hook) { evict_hook_ = std::move(hook); }

    /** Attach the observability layer: misses and evictions become
     *  structured events (null detaches). */
    void attachObserver(Observer *obs) { obs_ = obs; }

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    size_t numSets() const { return sets_.size(); }

  private:
    struct Entry
    {
        PageNum page;
        bool half;
        bool dirty;
        uint8_t ovf_counter; ///< 2-bit saturating (Sec. IV-B2)
    };

    /**
     * Set i's entries are the first `count` of its slots_per_set_ slots
     * starting at slots_[i * slots_per_set_], MRU first. Weights count
     * half ways: a half entry weighs 1, a full one 2, and a miss or
     * reshape() evicts from the LRU end until the set weighs at most
     * 2 * ways. A hit that grows an entry does not evict, so a set can
     * hold 2 * ways entries plus the one a miss inserts before
     * evicting: 2 * ways + 1 slots.
     */
    struct Set
    {
        uint32_t count = 0;
        uint32_t weight = 0;
    };

    static uint32_t weightOf(bool half) { return half ? 1 : 2; }
    size_t setIndex(PageNum page) const { return page % sets_.size(); }
    Entry *
    slotsOf(size_t set) const
    {
        return slots_.get() + set * slots_per_set_;
    }
    /** Slot of @p page within its set, or the set's count on miss. */
    uint32_t find(size_t set, PageNum page) const;
    /** Move slot @p pos of @p set to the MRU position. */
    void toFront(size_t set, uint32_t pos);
    /** Evict LRU entries until @p set is within capacity. */
    void evictOverCapacity(size_t set);

    MetadataCacheConfig cfg_;
    size_t slots_per_set_;
    std::vector<Set> sets_;
    /** Every set's slots in one array. Slots past a set's count are
     *  never read, so construction leaves them uninitialized. */
    std::unique_ptr<Entry[]> slots_;
    EvictHook evict_hook_;
    Observer *obs_ = nullptr;
    StatGroup stats_{"mdcache"};
    // Cached hot-path counter handles (stable across reset()).
    uint64_t &st_accesses_ = stats_.stat("accesses");
    uint64_t &st_hits_ = stats_.stat("hits");
    uint64_t &st_misses_ = stats_.stat("misses");
    uint64_t &st_evictions_ = stats_.stat("evictions");
};

} // namespace compresso

#endif // COMPRESSO_META_METADATA_CACHE_H
