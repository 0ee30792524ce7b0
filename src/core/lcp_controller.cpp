#include "core/lcp_controller.h"

#include <algorithm>
#include <cassert>

#include "prof/profiler.h"

namespace compresso {

namespace {

/** Exception pointers that fit the 64 B LCP metadata entry. */
constexpr uint32_t kMaxExceptionPtrs = 17;

} // namespace

LcpController::LcpController(const LcpConfig &cfg)
    : CompressedController(cfg.installed_bytes, /*stream_buffer=*/true,
                           cfg.mdcache,
                           {.region_base = Addr(1) << 41, .os_aware = true},
                           makeCompressor("bpc"),
                           cfg.alignment_friendly ? compressoBins()
                                                  : legacyBins()),
      cfg_(cfg)
{
}

uint32_t
LcpController::excCapacity(const Page &p) const
{
    uint32_t slots_end = uint32_t(kLinesPerPage) * p.target;
    uint32_t alloc = allocBytes(p);
    if (alloc <= slots_end)
        return 0;
    // The metadata entry holds a bounded list of exception pointers;
    // beyond it, an overflow is a page fault (OS relayout).
    return std::min<uint32_t>((alloc - slots_end) / uint32_t(kLineBytes),
                              kMaxExceptionPtrs);
}

uint32_t
LcpController::pageAlloc(const Page &p, unsigned exceptions) const
{
    return pageBinBytes(excOffset(p, exceptions), PageSizing::kVariable4);
}

LcpController::Slots
LcpController::slots(const Page &p) const
{
    Slots out;
    if (!p.valid || p.zero)
        return out;
    for (LineIdx i = 0; i < kLinesPerPage; ++i) {
        if (p.zero_line[i])
            continue;
        out[i] = p.exc_slot[i] != 0xff
                     ? Slot{excOffset(p, p.exc_slot[i]), uint16_t(kLineBytes)}
                     : Slot{slotOffset(p, i), p.target};
    }
    return out;
}

void
LcpController::initialAllocate(Page &p, const Encoded &enc)
{
    // Smallest candidate target that fits this first line.
    p.target = bins_->binSize(enc.bin);
    // The OS sizes the page for its compressed footprint; the
    // exception region is whatever slack the 4 page-size bins leave
    // (pages at exactly a bin boundary have none, and overflow into a
    // page fault).
    resizeFor(p, pageAlloc(p, 0));
    p.zero = false;
    p.zero_line.set(); // all lines are zero until written
}

void
LcpController::pageOverflow(PageNum pn, Page &p, LineIdx idx,
                            const Line &raw, McTrace &trace)
{
    // The best target for the actual sizes; raw 64 B slots when that
    // layout would exceed 4 KB.
    auto lay_out = [&](bool admitted) -> std::optional<Layout> {
        std::array<LineSize, kLinesPerPage> sizes;
        for (LineIdx i = 0; i < kLinesPerPage; ++i) {
            sizes[i].bytes = p.actual_bytes[i];
            sizes[i].zero = p.zero_line[i];
        }
        LcpLayout layout = lcpPack(sizes, *bins_);
        p.exc_slot.fill(0xff);
        p.exc_map.reset();
        if (!admitted || layout.payload_bytes > kPageBytes) {
            p.target = uint16_t(kLineBytes);
            return std::nullopt;
        }
        p.target = layout.target_bytes;
        uint8_t next_exc = 0;
        for (LineIdx i = 0; i < kLinesPerPage; ++i) {
            if (p.zero_line[i] || !layout.exception[i])
                continue;
            p.exc_slot[i] = next_exc;
            p.exc_map.set(next_exc++);
        }
        return Layout{slots(p), excOffset(p, next_exc),
                      pageAlloc(p, layout.exception_count)};
    };
    // OS-aware: the overflow raises a page fault, then the OS moves
    // the page.
    relayout(pn, p, slots(p), allocBytes(p), idx, raw, OsFault::kBeforeMove,
             trace, lay_out);
}

MetadataFrontEnd::PageState
LcpController::mdPageState(PageNum pn) const
{
    const Page &p = pages_.at(pn);
    return {p.valid, p.valid && !p.zero && p.target != kLineBytes};
}

void
LcpController::mdInflate(PageNum pn, McTrace &trace)
{
    Page &p = pages_.at(pn);
    inflatePage(p, slots(p), allocBytes(p), trace);
    p.target = uint16_t(kLineBytes);
    p.exc_slot.fill(0xff);
    p.exc_map.reset();
}

void
LcpController::fillLine(Addr addr, Line &data, McTrace &trace)
{
    CPR_PROF_SCOPE(ProfPhase::kMcFill);
    PageNum pn = pageOf(addr);
    LineIdx idx = lineOf(addr);
    MetadataFrontEnd::Op op(md_, trace, pn);
    ++st_fills_;

    Page &p = page(pn);
    if (!md_.access(addr, false, trace)) {
        data.fill(0); // retired by the degradation ladder
        return;
    }

    if (!p.valid || p.zero || p.zero_line[idx]) {
        data.fill(0);
        ++st_zero_fills_;
        return;
    }

    // Speculative slot access in parallel with metadata (the TLB knows
    // the target size in the OS-aware design).
    trace.speculative_parallel = true;
    uint32_t off = slotOffset(p, idx);
    unsigned blocks = store_.lineAccess(p.chunk_id, pn, off, p.target, false,
                                        trace, st_split_fill_lines_);

    if (p.exc_slot[idx] != 0xff) {
        // Speculation failed: serialized exception access.
        ++st_exception_accesses_;
        st_exception_extra_ops_ += blocks; // the wasted slot read
        Slot exc{excOffset(p, p.exc_slot[idx]), uint16_t(kLineBytes)};
        store_.deviceOps(p.chunk_id, exc.off, kLineBytes, false, true, trace,
                         AttribComp::kDeviceExtra);
        readSlot(addr, p.chunk_id, exc, kBpcLatency, data, trace);
        return;
    }

    if (!readSlot(addr, p.chunk_id, {off, p.target}, kBpcLatency, data,
                  trace))
        return;

    // Free prefetch: slot-mates that arrived whole in the same bursts.
    if (p.target < kLineBytes) {
        uint32_t blk_lo = (off / kLineBytes) * uint32_t(kLineBytes);
        uint32_t blk_hi = uint32_t(roundUp(off + p.target, kLineBytes));
        LineIdx first = LineIdx(blk_lo / p.target +
                                (blk_lo % p.target ? 1 : 0));
        for (LineIdx j = first; j < kLinesPerPage; ++j) {
            uint32_t lo = j * uint32_t(p.target);
            if (lo + p.target > blk_hi)
                break;
            if (j == idx || p.zero_line[j] || p.exc_slot[j] != 0xff)
                continue;
            if (trace.co_fetched.size() < 8) {
                trace.co_fetched.push_back(pn * kPageBytes +
                                           Addr(j) * kLineBytes);
            }
        }
        st_co_fetched_lines_ += trace.co_fetched.size();
    }
}

void
LcpController::writebackLine(Addr addr, const Line &data, McTrace &trace)
{
    CPR_PROF_SCOPE(ProfPhase::kMcWriteback);
    PageNum pn = pageOf(addr);
    LineIdx idx = lineOf(addr);
    MetadataFrontEnd::Op op(md_, trace, pn);
    ++st_writebacks_;

    Page &p = page(pn);
    if (!md_.access(addr, true, trace))
        return; // the page is retired

    Encoded enc = encode(data);
    CPR_OBS_HIST(h_line_bytes_, enc.zero ? 0 : enc.bytes.size());

    if (!p.valid)
        firstTouch(p);

    if (p.zero) {
        if (enc.zero) {
            ++st_zero_wbs_;
            return;
        }
        initialAllocate(p, enc);
    }

    trace.addFixed(AttribComp::kCompress, kBpcLatency);
    p.actual_bytes[idx] = uint16_t(enc.bytes.size());

    if (enc.zero) {
        // Zero-line shortcut: metadata only; release any exception slot.
        if (p.exc_slot[idx] != 0xff) {
            p.exc_map.reset(p.exc_slot[idx]);
            p.exc_slot[idx] = 0xff;
        }
        p.zero_line[idx] = true;
        ++st_zero_wbs_;
        return;
    }
    p.zero_line[idx] = false;

    // The target is a bin size: the line fits if its bin does.
    if (bins_->binSize(enc.bin) <= p.target) {
        if (p.exc_slot[idx] != 0xff) {
            p.exc_map.reset(p.exc_slot[idx]);
            p.exc_slot[idx] = 0xff; // back into its slot
        }
        writeSlot(pn, p.chunk_id, {slotOffset(p, idx), p.target}, data, enc,
                  trace, st_split_wb_lines_);
        return;
    }

    ++st_line_overflows_;
    CPR_OBS_EVENT(obs_, ObsEvent::kLineOverflow, pn, idx);
    if (p.exc_slot[idx] != 0xff) {
        // Already an exception: overwrite in place.
        uint32_t off = excOffset(p, p.exc_slot[idx]);
        store_.deviceOps(p.chunk_id, off, kLineBytes, true, false, trace);
        store_.storeBytes(p.chunk_id, off, data.data(), kLineBytes);
        return;
    }
    unsigned cap = excCapacity(p);
    unsigned free_slot = cap;
    for (unsigned s = 0; s < cap; ++s) {
        if (!p.exc_map[s]) {
            free_slot = s;
            break;
        }
    }
    if (free_slot < cap) {
        p.exc_slot[idx] = uint8_t(free_slot);
        p.exc_map.set(free_slot);
        uint32_t off = excOffset(p, p.exc_slot[idx]);
        store_.deviceOps(p.chunk_id, off, kLineBytes, true, false, trace,
                         AttribComp::kOverflowRelayout);
        store_.storeBytes(p.chunk_id, off, data.data(), kLineBytes);
        ++st_ir_placements_;
        return;
    }

    pageOverflow(pn, p, idx, data, trace);
}

} // namespace compresso
