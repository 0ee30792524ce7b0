/**
 * @file
 * ChunkStore: the 512 B machine-chunk layer under the three compressed
 * controllers (Sec. II-D).
 *
 * Compresso, LCP and RMC all keep a page as a list of up to eight
 * 512 B chunks: page bytes [512 * i, 512 * (i + 1)) live in chunk
 * ids[i], and ids past the page's chunk count are kNoChunk. The store
 * is the one place that grows and shrinks such a list (with the
 * OOM-rescue retry), scatters chunks over machine addresses, copies
 * bytes across chunk boundaries, emits the 64 B device ops of an
 * access and recovers a data DUE. The controllers keep only their own
 * layouts on top: LCP slots and exceptions, RMC subpages, Compresso's
 * metadata entry and inflation room. The store
 * counts into its controller's `mc` stat group.
 */

#ifndef COMPRESSO_CORE_CHUNK_STORE_H
#define COMPRESSO_CORE_CHUNK_STORE_H

#include <array>
#include <cstdint>
#include <deque>
#include <optional>

#include "common/stats.h"
#include "common/types.h"
#include "core/chunk_allocator.h"
#include "core/memory_controller.h"
#include "core/pressure_hooks.h"
#include "fault/fault_hooks.h"
#include "obs/attrib.h"
#include "obs/observer.h"

namespace compresso {

/** Who ChunkStore::resize asks when an allocation finds no free chunk:
 *  the listener (none = fail at once) and the page whose operation is
 *  in flight, which the reclaim must not pick. */
struct OomRescue
{
    PressureListener *listener = nullptr;
    PageNum busy = kNoPage;
};

class ChunkStore
{
  public:
    /** One page's chunk ids, in page-offset order. */
    using ChunkIds = std::array<uint32_t, kChunksPerPage>;

    /**
     * Registers data_read_ops, data_write_ops, split_extra_ops and
     * oom_rescues in @p stats; machine_oom, fault_lines_poisoned and
     * fault_recovery_ops appear on first use. @p stream_buffer is set
     * only by controllers that model the device-side stream buffer
     * (free prefetch, Sec. VII-A; LCP and Compresso), which also
     * registers prefetch_hits.
     */
    ChunkStore(uint64_t installed_bytes, StatGroup &stats,
               FaultHooks &fault, bool stream_buffer);

    void attachObserver(Observer *obs) { obs_ = obs; }

    /** Grow or shrink a page's list to @p target chunks. A grow that
     *  finds no free chunk asks @p rescue once and retries; if that
     *  fails too, machine_oom is counted and false returned, keeping
     *  the chunks allocated so far. */
    bool resize(uint8_t &count, ChunkIds &ids, unsigned target,
                OomRescue rescue = {});

    void storeBytes(const ChunkIds &ids, uint32_t off, const uint8_t *src,
                    size_t len);
    void loadBytes(const ChunkIds &ids, uint32_t off, uint8_t *dst,
                   size_t len) const;

    /**
     * Append the 64 B device ops covering page bytes [off, off + len)
     * to @p trace, attributed to @p comp, and return how many blocks
     * the range spans. After the first issued block of a critical
     * access the rest are split-access overhead (kDeviceExtra,
     * DESIGN.md §15). Writes scrub faults and leave the stream buffer;
     * critical reads are exposed to faults, or hit the stream buffer
     * and issue nothing.
     */
    unsigned deviceOps(const ChunkIds &ids, uint32_t off, size_t len,
                       bool write, bool critical, McTrace &trace,
                       AttribComp comp = AttribComp::kDeviceData);

    /** deviceOps for one line's demand access: a fill's critical read
     *  or a writeback's slot write. A line spanning n > 1 blocks is a
     *  split access: +1 in @p split_lines, +(n - 1) in split_extra_ops
     *  and a kSplitAccess event for @p page. Returns n. */
    unsigned lineAccess(const ChunkIds &ids, PageNum page, uint32_t off,
                        size_t len, bool write, McTrace &trace,
                        uint64_t &split_lines);

    /** Data DUE on a demand fill of @p ospa_line, stored at page bytes
     *  [off, off + len): poison the line and charge the retry read plus
     *  the poison-pattern rewrite (which scrubs the blocks). */
    void poisonLine(Addr ospa_line, const ChunkIds &ids, uint32_t off,
                    size_t len, McTrace &trace);

    uint64_t usedBytes() const { return alloc_.usedBytes(); }
    const ChunkAllocator &allocator() const { return alloc_; }
    ChunkAllocator &allocator() { return alloc_; }

  private:
    Addr mpaOf(const ChunkIds &ids, uint32_t off) const;

    ChunkAllocator alloc_;
    StatGroup &stats_;
    FaultHooks &fault_;
    Observer *obs_ = nullptr;
    bool stream_buffer_ = false;
    std::deque<Addr> stream_buf_;

    uint64_t &st_data_read_ops_;
    uint64_t &st_data_write_ops_;
    uint64_t &st_split_extra_ops_;
    uint64_t &st_oom_rescues_;
    uint64_t *st_prefetch_hits_ = nullptr; ///< stream-buffer models only
};

} // namespace compresso

#endif // COMPRESSO_CORE_CHUNK_STORE_H
