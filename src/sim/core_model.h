/**
 * @file
 * Approximate out-of-order core timing (Tab. III: 3 GHz, 4-wide,
 * 192-entry ROB).
 *
 * Interval-style model rather than a pipeline simulation: non-memory
 * instructions retire at the issue width; demand-load misses overlap
 * with each other as long as they fit in the ROB window (bounded MLP),
 * and the core stalls when the oldest outstanding miss is more than a
 * ROB's worth of instructions behind. Store misses do not stall the
 * core (store buffer) but their traffic loads the memory system. This
 * preserves the paper's relative effects: extra critical-path memory
 * latency (metadata misses, split accesses, decompression) hurts
 * memory-bound workloads in proportion to their MLP and intensity.
 *
 * Outstanding misses sit in a fixed ring of max_outstanding + 1 slots:
 * drain() leaves at most max_outstanding, so no push overflows it.
 */

#ifndef COMPRESSO_SIM_CORE_MODEL_H
#define COMPRESSO_SIM_CORE_MODEL_H

#include <vector>

#include "common/types.h"

namespace compresso {

struct CoreConfig
{
    unsigned issue_width = 4;
    unsigned rob_entries = 192;
    unsigned max_outstanding = 10; ///< MSHR-like MLP bound
};

class CoreModel
{
  public:
    explicit CoreModel(const CoreConfig &cfg = CoreConfig())
        : cfg_(cfg), ring_(size_t(cfg.max_outstanding) + 1) {}

    Cycle now() const { return Cycle(cycle_); }
    uint64_t instsRetired() const { return uint64_t(insts_); }

    /** Advance over @p n non-memory instructions. */
    void
    advanceInsts(double n)
    {
        insts_ += n;
        cycle_ += n / cfg_.issue_width;
    }

    /**
     * Account a demand load completing at absolute cycle @p done.
     * Hits are modeled as pipelined (no stall contribution beyond
     * their latency being short); misses enter the outstanding window.
     */
    void
    load(Cycle done)
    {
        insts_ += 1;
        cycle_ += 1.0 / cfg_.issue_width;
        size_t tail = head_ + count_;
        ring_[tail < ring_.size() ? tail : tail - ring_.size()] =
            Pending{double(done), insts_};
        ++count_;
        drain();
    }

    /** Account a store (non-blocking). */
    void
    store()
    {
        insts_ += 1;
        cycle_ += 1.0 / cfg_.issue_width;
    }

    /** Synchronous stall (OS page fault in the OS-aware baseline). */
    void
    stall(Cycle cycles)
    {
        cycle_ += double(cycles);
    }

    /** Retire everything outstanding (end of simulation). */
    void
    drainAll()
    {
        while (count_ != 0) {
            cycle_ = std::max(cycle_, ring_[head_].done);
            popFront();
        }
    }

  private:
    struct Pending
    {
        double done;        ///< completion cycle
        double inst_at_issue;
    };

    void
    popFront()
    {
        head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
        --count_;
    }

    void
    drain()
    {
        // Completed misses leave the window for free.
        while (count_ != 0 && ring_[head_].done <= cycle_)
            popFront();
        // ROB limit: the core cannot run more than rob_entries ahead
        // of the oldest outstanding load; MSHR limit caps overlap.
        while (count_ != 0 &&
               (insts_ - ring_[head_].inst_at_issue >
                    double(cfg_.rob_entries) ||
                count_ > cfg_.max_outstanding)) {
            cycle_ = std::max(cycle_, ring_[head_].done);
            popFront();
        }
    }

    CoreConfig cfg_;
    double cycle_ = 0;
    double insts_ = 0;
    /// Outstanding misses, oldest at head_.
    std::vector<Pending> ring_;
    size_t head_ = 0;
    size_t count_ = 0;
};

} // namespace compresso

#endif // COMPRESSO_SIM_CORE_MODEL_H
