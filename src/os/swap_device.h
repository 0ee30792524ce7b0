/**
 * @file
 * Swap device model: counts page-ins/outs and charges a fixed cost per
 * operation (the paper's memory-capacity methodology pages to an SSD
 * swap area when the cgroup budget is exceeded).
 *
 * The device can also be bounded: with a non-zero slot capacity a
 * page-out that finds no free slot fails *typed* (SwapStatus::kFull,
 * `swap_full` stat) instead of silently absorbing the write. The OS
 * layer reacts by probing for clean victims and, failing that,
 * escalating to the pressure governor — never by overcommitting
 * silently.
 */

#ifndef COMPRESSO_OS_SWAP_DEVICE_H
#define COMPRESSO_OS_SWAP_DEVICE_H

#include <cstdint>

#include "common/stats.h"

namespace compresso {

/** Outcome of a swap-device operation. */
enum class SwapStatus : uint8_t
{
    kOk = 0, ///< completed
    kFull,   ///< no free slot: the operation did NOT happen
};

class SwapDevice
{
  public:
    /** @param page_in_us  latency to fault a 4 KB page in from swap
     *  @param page_out_us latency to clean and write a dirty page */
    explicit SwapDevice(double page_in_us = 50.0, double page_out_us = 25.0)
        : page_in_us_(page_in_us), page_out_us_(page_out_us)
    {}

    /** Bound the device to @p pages slots (0 = unlimited, the
     *  default). Shrinking below the currently stored count only
     *  affects future page-outs. */
    void setCapacity(uint64_t pages) { capacity_ = pages; }
    uint64_t capacity() const { return capacity_; }

    /** True if a page-out would fail with SwapStatus::kFull. */
    bool
    full() const
    {
        return capacity_ != 0 && stored_pages_ >= capacity_;
    }

    /** Fault one page in. */
    void
    pageIn()
    {
        ++stats_["page_ins"];
        busy_us_ += page_in_us_;
    }

    /** Write one dirty page out. On SwapStatus::kFull nothing was
     *  written (no latency charged) — the caller must keep the page or
     *  consciously discard it; `swap_full` counts the rejections. */
    SwapStatus
    pageOut()
    {
        if (full()) {
            ++st_swap_full_;
            return SwapStatus::kFull;
        }
        ++stored_pages_;
        ++stats_["page_outs"];
        busy_us_ += page_out_us_;
        return SwapStatus::kOk;
    }

    /** Release one stored slot (page faulted back in or its swap copy
     *  dropped). */
    void
    releaseSlot()
    {
        if (stored_pages_ > 0)
            --stored_pages_;
    }

    double busyMicros() const { return busy_us_; }
    uint64_t pageIns() const { return stats_.get("page_ins"); }
    uint64_t pageOuts() const { return stats_.get("page_outs"); }
    uint64_t storedPages() const { return stored_pages_; }
    uint64_t swapFullRejections() const { return st_swap_full_; }

    StatGroup &stats() { return stats_; }

  private:
    double page_in_us_;
    double page_out_us_;
    double busy_us_ = 0;
    uint64_t capacity_ = 0; ///< slots; 0 = unlimited
    uint64_t stored_pages_ = 0;
    StatGroup stats_{"swap"};
    uint64_t &st_swap_full_ = stats_.stat("swap_full");
};

} // namespace compresso

#endif // COMPRESSO_OS_SWAP_DEVICE_H
