#include "os/sim_os.h"

#include <cstdio>
#include <cstdlib>

namespace compresso {

SimOs::SimOs(uint64_t budget_pages) : budget_(budget_pages) {}

bool
SimOs::evictOne()
{
    if (lru_.empty())
        return false;
    // Coldest-first victim scan, bounded: when the swap device is full
    // a dirty page cannot be cleaned, so probe up to kVictimScan cold
    // pages for a clean one before declaring an overrun.
    auto vit = std::prev(lru_.end());
    for (unsigned probe = 0; probe < kVictimScan; ++probe) {
        auto it = resident_.find(*vit);
        bool evictable = true;
        if (it->second.dirty) {
            SwapStatus st = swap_.pageOut();
            if (st == SwapStatus::kFull)
                evictable = false;
            else
                swapped_.insert(*vit);
        }
        if (evictable) {
            resident_.erase(it);
            lru_.erase(vit);
            ++stats_["evictions"];
            return true;
        }
        if (vit == lru_.begin())
            break;
        --vit;
    }
    ++stats_["budget_overruns"];
    if (on_overrun_)
        on_overrun_();
    return false;
}

bool
SimOs::touch(PageNum page, bool dirty)
{
    ++stats_["touches"];
    auto it = resident_.find(page);
    if (it != resident_.end()) {
        lru_.erase(it->second.lru_it);
        lru_.push_front(page);
        it->second.lru_it = lru_.begin();
        it->second.dirty |= dirty;
        return false;
    }

    ++stats_["faults"];
    swap_.pageIn();
    auto sw = swapped_.find(page);
    if (sw != swapped_.end()) {
        // The page's swap copy is consumed by the fault-in.
        swap_.releaseSlot();
        swapped_.erase(sw);
    }
    while (resident_.size() >= budget_ && !resident_.empty()) {
        if (!evictOne())
            break; // over budget: recorded + escalated by evictOne()
    }
    lru_.push_front(page);
    resident_[page] = Resident{lru_.begin(), dirty};
    return true;
}

void
SimOs::setBudget(uint64_t budget_pages)
{
    budget_ = budget_pages;
    while (resident_.size() > budget_) {
        if (!evictOne())
            break; // over budget: recorded + escalated by evictOne()
    }
}

void
SimOs::removeForBalloon(std::unordered_map<PageNum, Resident>::iterator it)
{
    PageNum victim = it->first;
    if (it->second.dirty) {
        // Ballooned pages are invalidated in the controller, so when
        // the swap device is full the copy may be discarded — counted,
        // never silent.
        if (swap_.pageOut() == SwapStatus::kFull)
            ++stats_["swap_full_discards"];
        else
            swapped_.insert(victim);
    }
    lru_.erase(it->second.lru_it);
    resident_.erase(it);
    ++stats_["evictions"];
    ++stats_["balloon_reclaims"];
}

std::vector<PageNum>
SimOs::reclaim(uint64_t n)
{
    std::vector<PageNum> freed;
    if (!window_active_) {
        while (n-- > 0 && !lru_.empty()) {
            PageNum victim = lru_.back();
            freed.push_back(victim);
            removeForBalloon(resident_.find(victim));
        }
        return freed;
    }
    // Partition-scoped reclaim: clamp the LRU scan to the window so
    // one tenant's balloon never drains a neighbour's pages.
    std::vector<PageNum> victims;
    for (auto it = lru_.rbegin(); it != lru_.rend() && victims.size() < n;
         ++it) {
        if (inReclaimWindow(*it))
            victims.push_back(*it);
    }
    for (PageNum victim : victims) {
        freed.push_back(victim);
        removeForBalloon(resident_.find(victim));
    }
    return freed;
}

bool
SimOs::reclaimSpecific(PageNum page)
{
    if (!inReclaimWindow(page)) {
        if (window_fatal_) {
            std::fprintf(stderr,
                         "SimOs::reclaimSpecific: page %llu outside "
                         "partition window [%llu, %llu)\n",
                         (unsigned long long)page,
                         (unsigned long long)window_base_,
                         (unsigned long long)(window_base_ +
                                              window_pages_));
            std::abort();
        }
        ++stats_["window_rejects"];
        return false;
    }
    auto it = resident_.find(page);
    if (it == resident_.end())
        return false;
    removeForBalloon(it);
    return true;
}

std::vector<PageNum>
SimOs::coldPages(uint64_t n) const
{
    std::vector<PageNum> out;
    for (auto it = lru_.rbegin(); it != lru_.rend() && out.size() < n;
         ++it) {
        if (inReclaimWindow(*it))
            out.push_back(*it);
    }
    return out;
}

void
SimOs::setReclaimWindow(PageNum base, uint64_t pages, bool fatal)
{
    window_active_ = true;
    window_fatal_ = fatal;
    window_base_ = base;
    window_pages_ = pages;
}

void
SimOs::clearReclaimWindow()
{
    window_active_ = false;
    window_fatal_ = false;
    window_base_ = 0;
    window_pages_ = 0;
}

} // namespace compresso
