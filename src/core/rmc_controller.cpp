#include "core/rmc_controller.h"

#include <cassert>

#include "prof/profiler.h"
#include "packing/linepack.h"

namespace compresso {

namespace {

/** OS page-fault cost for a page overflow. */
constexpr Cycle kPageFaultCycles = 9000;

} // namespace

// The original RMC used ratio-optimal sizes: the legacy bins.
RmcController::RmcController(const RmcConfig &cfg)
    : CompressedController(cfg.installed_bytes, /*stream_buffer=*/false,
                           cfg.bst,
                           {.region_base = Addr(1) << 42,
                            .hit_comp = AttribComp::kBstWalk,
                            .miss_comp = AttribComp::kBstWalk,
                            .os_fault_cycles = kPageFaultCycles},
                           makeCompressor("bpc"), legacyBins()),
      cfg_(cfg)
{
}

uint32_t
RmcController::pageAlloc(const std::array<uint8_t, kLinesPerPage> &codes,
                         SubAlloc &sub_alloc) const
{
    uint32_t used = 0;
    for (unsigned sp = 0; sp < kSubpages; ++sp) {
        sub_alloc[sp] = packBytes(codes, LineIdx(sp * kLinesPerSubpage),
                                  LineIdx((sp + 1) * kLinesPerSubpage)) +
                        cfg_.hysteresis_bytes;
        used += sub_alloc[sp];
    }
    return pageBinBytes(used, PageSizing::kVariable4);
}

uint32_t
RmcController::subBase(const Page &p, unsigned sp) const
{
    uint32_t base = 0;
    for (unsigned s = 0; s < sp; ++s)
        base += p.sub_alloc[s];
    return base;
}

RmcController::Slot
RmcController::lineSlot(const Page &p, LineIdx idx) const
{
    unsigned sp = subpageOf(idx);
    return {subBase(p, sp) +
                packBytes(p.code, LineIdx(sp * kLinesPerSubpage), idx),
            bins_->binSize(p.code[idx])};
}

RmcController::Slots
RmcController::slots(const Page &p) const
{
    Slots out;
    if (!p.valid || p.zero)
        return out;
    uint32_t base = 0;
    for (unsigned sp = 0; sp < kSubpages; ++sp) {
        packSlots(p.code, out, LineIdx(sp * kLinesPerSubpage),
                  LineIdx((sp + 1) * kLinesPerSubpage), base);
        base += p.sub_alloc[sp];
    }
    return out;
}

void
RmcController::setRaw(Page &p) const
{
    p.sub_alloc.fill(uint32_t(kPageBytes / kSubpages));
    p.code.fill(uint8_t(bins_->count() - 1));
}

void
RmcController::relayout(PageNum pn, Page &p,
                        const std::array<uint8_t, kLinesPerPage> &codes,
                        LineIdx idx, const Line &raw, Relayout why,
                        McTrace &trace)
{
    CPR_PROF_SCOPE(ProfPhase::kMcOverflow);
    uint32_t old_used = subBase(p, kSubpages);
    // Re-layout admission: a blown relocation budget (watchdog)
    // forces the raw layout — terminal, the page cannot overflow
    // again — instead of another compressed re-layout.
    bool escalate_raw = false;
    if (pressure_ != nullptr) {
        uint64_t est =
            2ull * (old_used / kLineBytes + uint64_t(kLinesPerPage));
        if (!pressure_->admitOp(PressureOp::kRelocation, est)) {
            escalate_raw = true;
            ++st_overflow_escalations_;
            CPR_OBS_EVENT(obs_, ObsEvent::kOpThrottled, pn,
                          uint32_t(PressureOp::kRelocation));
        }
    }
    // Governor-denied relocations still relocate (to the raw layout);
    // their traffic is charged to the pressure component.
    AttribComp relayout_comp = escalate_raw
                                   ? AttribComp::kPressureStall
                                   : AttribComp::kOverflowRelayout;
    PageLines buf;
    gather(p.chunk_id, slots(p), buf);
    buf[idx] = raw;

    if (p.chunks > 0)
        store_.deviceOps(p.chunk_id, 0, old_used, false, false, trace,
                         relayout_comp);
    st_overflow_move_ops_ += lineBlocks(old_used);

    p.code = codes;
    uint32_t alloc = pageAlloc(codes, p.sub_alloc);
    uint32_t new_used = subBase(p, kSubpages);
    if (escalate_raw || alloc < new_used) {
        // Full page: store raw, subpages degenerate to 1 KB each.
        setRaw(p);
        new_used = uint32_t(kPageBytes);
        storeRawPage(p, buf, trace, relayout_comp, OnRefusal::kStore);
    } else {
        resizeFor(p, alloc);
        storeLines(p.chunk_id, slots(p), buf);
        store_.deviceOps(p.chunk_id, 0, new_used, true, false, trace,
                         relayout_comp);
    }

    if (why == Relayout::kOsFault) {
        ++st_page_overflows_;
        ++st_page_faults_;
        CPR_OBS_EVENT(obs_, ObsEvent::kPageOverflow, pn, 0);
        CPR_OBS_EVENT(obs_, ObsEvent::kPageFault, pn,
                      uint32_t(kPageFaultCycles));
        st_page_fault_cycles_ += kPageFaultCycles;
        trace.addStall(AttribComp::kOsFault, kPageFaultCycles);
    } else if (why == Relayout::kShift) {
        ++st_subpage_shifts_;
    }
    st_overflow_move_ops_ += lineBlocks(new_used);
    if (pressure_ != nullptr)
        pressure_->onOpCost(PressureOp::kRelocation,
                            uint64_t(lineBlocks(old_used)) +
                                lineBlocks(new_used));
}

MetadataFrontEnd::PageState
RmcController::mdPageState(PageNum pn) const
{
    const Page &p = pages_.at(pn);
    bool raw_already = true;
    for (LineIdx l = 0; l < kLinesPerPage; ++l)
        raw_already &= p.code[l] == uint8_t(bins_->count() - 1);
    return {p.valid, p.valid && !p.zero && !raw_already};
}

void
RmcController::mdInflate(PageNum pn, McTrace &trace)
{
    Page &p = pages_.at(pn);
    PageLines buf;
    gather(p.chunk_id, slots(p), buf);
    store_.deviceOps(p.chunk_id, 0, subBase(p, kSubpages), false, false,
                     trace, AttribComp::kFaultRecovery);
    setRaw(p);
    storeRawPage(p, buf, trace, AttribComp::kFaultRecovery,
                 OnRefusal::kStore);
}

void
RmcController::fillLine(Addr addr, Line &data, McTrace &trace)
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

    if (!p.valid || p.zero || p.code[idx] == 0) {
        data.fill(0);
        ++st_zero_fills_;
        return;
    }

    Slot slot = lineSlot(p, idx);
    trace.addFixed(AttribComp::kBstWalk, 1); // BST-side offset adder
    store_.lineAccess(p.chunk_id, pn, slot.off, slot.bytes, false, trace,
                      st_split_fill_lines_);
    readSlot(addr, p.chunk_id, slot, kBpcLatency, data, trace);
}

void
RmcController::writebackLine(Addr addr, const Line &data, McTrace &trace)
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
        // First data: lay out the page with this line's code.
        p.zero = false;
        p.code.fill(0);
        std::array<uint8_t, kLinesPerPage> codes{};
        codes[idx] = uint8_t(enc.bin);
        // relayout() reads old content; page has no chunks yet.
        trace.addFixed(AttribComp::kCompress, kBpcLatency);
        relayout(pn, p, codes, idx, data, Relayout::kFirst, trace);
        return;
    }

    trace.addFixed(AttribComp::kCompress, kBpcLatency);
    unsigned code = p.code[idx];

    if (enc.bin <= code) {
        // Fits its slot.
        if (enc.zero && code == 0)
            ++st_zero_wbs_;
        else
            writeSlot(pn, p.chunk_id, lineSlot(p, idx), data, enc, trace,
                      st_split_wb_lines_);
        return;
    }

    // Line overflow: try to absorb it in the subpage's hysteresis.
    ++st_line_overflows_;
    CPR_OBS_EVENT(obs_, ObsEvent::kLineOverflow, pn, idx);
    unsigned sp = subpageOf(idx);
    LineIdx sp_end = LineIdx((sp + 1) * kLinesPerSubpage);
    std::array<uint8_t, kLinesPerPage> codes = p.code;
    codes[idx] = uint8_t(enc.bin);

    if (packBytes(codes, LineIdx(sp * kLinesPerSubpage), sp_end) <=
        p.sub_alloc[sp]) {
        // Hysteresis absorbs it: shift only the lines after idx within
        // this subpage ("light" movement).
        Slots old = slots(p);
        PageLines buf;
        gather(p.chunk_id, old, buf, idx + 1, sp_end);
        uint32_t moved_from = old[idx].off;
        uint32_t sub_end = subBase(p, sp) + p.sub_alloc[sp];
        store_.deviceOps(p.chunk_id, moved_from, sub_end - moved_from, false,
                         false, trace, AttribComp::kOverflowRelayout);
        p.code = codes;
        Slots shifted = slots(p);
        storeSlot(p.chunk_id, shifted[idx], data, &enc);
        storeLines(p.chunk_id, shifted, buf, idx + 1, sp_end);
        store_.deviceOps(p.chunk_id, moved_from, sub_end - moved_from, true,
                         false, trace, AttribComp::kOverflowRelayout);
        st_overflow_move_ops_ += 2ull * lineBlocks(sub_end - moved_from);
        ++st_hysteresis_absorbs_;
        return;
    }

    // Subpage outgrew its slack: rebuild the page layout. If the new
    // total still fits the current allocation it is a subpage shift;
    // otherwise the OS must reallocate (page fault).
    SubAlloc sub_alloc;
    bool os_fault = pageAlloc(codes, sub_alloc) > allocBytes(p);
    relayout(pn, p, codes, idx, data,
             os_fault ? Relayout::kOsFault : Relayout::kShift, trace);
}

} // namespace compresso
