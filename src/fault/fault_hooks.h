/**
 * @file
 * Controller-side fault plumbing shared by all four back ends.
 *
 * A FaultHooks member sits in each memory controller and mediates
 * between its device-op streams and the (optional) FaultInjector:
 *
 *  - exposure: demand-critical data reads and metadata fetches are
 *    adjudicated through the injector; writes scrub. Data-read
 *    outcomes are *latched* (ChunkStore::deviceOps only returns op
 *    counts) and the controller collects the worst pending outcome
 *    after the burst via takePending().
 *  - suppression: recovery traffic (metadata re-walks, safety
 *    inflation) must not recursively inject faults into its own
 *    repair ops; a SuppressScope masks exposure for its extent.
 *  - poison registry: lines and pages retired by the degradation
 *    ladder. Poisoned fills return zeroed data and are counted; a
 *    fresh writeback to a poisoned line heals it (the block is
 *    rewritten), freeing a page clears all its poison.
 *
 * With no injector attached every hook is a cheap no-op, so fault
 * support costs nothing on the normal simulation paths.
 */

#ifndef COMPRESSO_FAULT_FAULT_HOOKS_H
#define COMPRESSO_FAULT_FAULT_HOOKS_H

#include <unordered_set>

#include "common/types.h"
#include "fault/fault_injector.h"

namespace compresso {

class FaultHooks
{
  public:
    void attach(FaultInjector *fi) { fi_ = fi; }
    FaultInjector *injector() const { return fi_; }
    bool active() const { return fi_ != nullptr; }

    bool
    recoveryEnabled() const
    {
        return fi_ != nullptr && fi_->config().recover;
    }

    // ------------------------------------------------------------------
    // Exposure.
    // ------------------------------------------------------------------

    /** Demand-critical data read of the 64 B block at MPA @p block;
     *  the outcome is latched for takePending(). */
    void
    onCriticalRead(Addr block)
    {
        if (fi_ == nullptr || suppress_ > 0)
            return;
        escalate(fi_->onRead(block, /*metadata=*/false));
    }

    /** Metadata fetch of the entry block at MPA @p block; returns the
     *  outcome directly (the caller recovers in place). */
    FaultOutcome
    onMetaRead(Addr block)
    {
        if (fi_ == nullptr || suppress_ > 0)
            return FaultOutcome::kClean;
        return fi_->onRead(block, /*metadata=*/true);
    }

    /** A device write rewrites the block: scrub accumulated faults. */
    void
    onWrite(Addr block)
    {
        if (fi_ == nullptr || suppress_ > 0)
            return;
        fi_->scrub(block);
    }

    /** Worst data-read outcome latched since the last take. */
    FaultOutcome
    takePending()
    {
        FaultOutcome out = pending_;
        pending_ = FaultOutcome::kClean;
        return out;
    }

    /** Masks exposure while recovery traffic is in flight. */
    class SuppressScope
    {
      public:
        explicit SuppressScope(FaultHooks &hooks) : hooks_(hooks)
        {
            ++hooks_.suppress_;
        }
        ~SuppressScope() { --hooks_.suppress_; }
        SuppressScope(const SuppressScope &) = delete;
        SuppressScope &operator=(const SuppressScope &) = delete;

      private:
        FaultHooks &hooks_;
    };

    // ------------------------------------------------------------------
    // Poison registry (OSPA line / page granularity).
    // ------------------------------------------------------------------

    bool
    linePoisoned(Addr ospa_line) const
    {
        return !poisoned_lines_.empty() &&
               poisoned_lines_.count(ospa_line) != 0;
    }

    void
    poisonLine(Addr ospa_line)
    {
        if (poisoned_lines_.insert(ospa_line).second && fi_ != nullptr)
            fi_->noteLinePoisoned();
    }

    void clearLinePoison(Addr ospa_line) { poisoned_lines_.erase(ospa_line); }

    bool
    pagePoisoned(PageNum page) const
    {
        return !poisoned_pages_.empty() && poisoned_pages_.count(page) != 0;
    }

    void
    poisonPage(PageNum page)
    {
        if (poisoned_pages_.insert(page).second && fi_ != nullptr)
            fi_->notePagePoisoned();
    }

    /** Drop all poison state for @p page (freePage / page retire-undo). */
    void
    clearPagePoison(PageNum page)
    {
        poisoned_pages_.erase(page);
        if (poisoned_lines_.empty())
            return;
        Addr base = Addr(page) * kPageBytes;
        for (unsigned l = 0; l < kLinesPerPage; ++l)
            poisoned_lines_.erase(base + Addr(l) * kLineBytes);
    }

    size_t poisonedLines() const { return poisoned_lines_.size(); }
    size_t poisonedPages() const { return poisoned_pages_.size(); }

  private:
    void
    escalate(FaultOutcome out)
    {
        if (int(out) > int(pending_))
            pending_ = out;
    }

    FaultInjector *fi_ = nullptr;
    FaultOutcome pending_ = FaultOutcome::kClean;
    int suppress_ = 0;
    std::unordered_set<Addr> poisoned_lines_;
    std::unordered_set<PageNum> poisoned_pages_;
};

} // namespace compresso

#endif // COMPRESSO_FAULT_FAULT_HOOKS_H
