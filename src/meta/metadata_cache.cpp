#include "meta/metadata_cache.h"

#include <algorithm>
#include <cassert>

#include "prof/profiler.h"

namespace compresso {

MetadataCache::MetadataCache(const MetadataCacheConfig &cfg)
    : cfg_(cfg), slots_per_set_(2 * size_t(cfg.ways) + 1)
{
    size_t entries = cfg.size_bytes / kMetadataEntryBytes;
    size_t sets = entries / cfg.ways;
    assert(sets > 0);
    sets_.resize(sets);
    slots_ = std::make_unique_for_overwrite<Entry[]>(sets * slots_per_set_);
}

uint32_t
MetadataCache::find(size_t set, PageNum page) const
{
    const Entry *slots = slotsOf(set);
    uint32_t n = sets_[set].count;
    uint32_t i = 0;
    while (i < n && slots[i].page != page)
        ++i;
    return i;
}

void
MetadataCache::toFront(size_t set, uint32_t pos)
{
    Entry *slots = slotsOf(set);
    Entry e = slots[pos];
    std::copy_backward(slots, slots + pos, slots + pos + 1);
    slots[0] = e;
}

void
MetadataCache::evictOverCapacity(size_t set)
{
    Set &s = sets_[set];
    while (s.weight > 2 * cfg_.ways) {
        Entry victim = slotsOf(set)[--s.count];
        s.weight -= weightOf(victim.half);
        ++st_evictions_;
        CPR_OBS_EVENT(obs_, ObsEvent::kMdEviction, victim.page,
                      victim.dirty ? 1 : 0);
        if (evict_hook_)
            evict_hook_(victim.page, victim.dirty);
    }
}

bool
MetadataCache::access(PageNum page, bool half, bool dirty)
{
    CPR_PROF_SCOPE(ProfPhase::kMdCacheAccess);
    if (!cfg_.half_entry_opt)
        half = false;
    size_t set = setIndex(page);
    Set &s = sets_[set];
    Entry *slots = slotsOf(set);
    ++st_accesses_;

    uint32_t pos = find(set, page);
    if (pos < s.count) {
        ++st_hits_;
        // Move to MRU; keep the larger shape if it grew.
        Entry &e = slots[pos];
        if (!half && e.half) {
            e.half = false;
            s.weight += weightOf(false) - weightOf(true);
        }
        e.dirty |= dirty;
        toFront(set, pos);
        return true;
    }

    ++st_misses_;
    CPR_OBS_EVENT(obs_, ObsEvent::kMdMiss, page, 0);
    assert(s.count < slots_per_set_);
    std::copy_backward(slots, slots + s.count, slots + s.count + 1);
    slots[0] = Entry{page, half, dirty, 0};
    ++s.count;
    s.weight += weightOf(half);
    evictOverCapacity(set);
    return false;
}

bool
MetadataCache::contains(PageNum page) const
{
    size_t set = setIndex(page);
    return find(set, page) < sets_[set].count;
}

void
MetadataCache::invalidate(PageNum page)
{
    size_t set = setIndex(page);
    Set &s = sets_[set];
    uint32_t pos = find(set, page);
    if (pos == s.count)
        return;
    Entry *slots = slotsOf(set);
    s.weight -= weightOf(slots[pos].half);
    std::copy(slots + pos + 1, slots + s.count, slots + pos);
    --s.count;
}

void
MetadataCache::reshape(PageNum page, bool half)
{
    if (!cfg_.half_entry_opt)
        half = false;
    size_t set = setIndex(page);
    Set &s = sets_[set];
    uint32_t pos = find(set, page);
    if (pos < s.count) {
        // Reshaping happens on an access, so refresh to MRU.
        Entry &e = slotsOf(set)[pos];
        s.weight = s.weight - weightOf(e.half) + weightOf(half);
        e.half = half;
        toFront(set, pos);
    }
    // Growing an entry can push the set over capacity.
    evictOverCapacity(set);
}

uint8_t *
MetadataCache::predictorCounter(PageNum page)
{
    size_t set = setIndex(page);
    uint32_t pos = find(set, page);
    return pos < sets_[set].count ? &slotsOf(set)[pos].ovf_counter
                                  : nullptr;
}

} // namespace compresso
