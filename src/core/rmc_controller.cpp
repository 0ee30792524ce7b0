#include "core/rmc_controller.h"

#include <algorithm>
#include <cassert>

#include "prof/profiler.h"
#include "packing/linepack.h"

namespace compresso {

RmcController::RmcController(const RmcConfig &cfg)
    : CompressedController(cfg.installed_bytes, std::nullopt, cfg.bst,
                           {.region_base = Addr(1) << 42,
                            .hit_latency = cfg.bst_hit_latency,
                            .hit_comp = AttribComp::kBstWalk,
                            .miss_comp = AttribComp::kBstWalk,
                            .os_fault_cycles = cfg.page_fault_cycles},
                           makeCompressor(cfg.compressor),
                           cfg.alignment_friendly ? compressoBins()
                                                  : legacyBins()),
      cfg_(cfg)
{
}

uint32_t
RmcController::subPack(const Page &p, unsigned sp) const
{
    uint32_t sum = 0;
    for (unsigned l = sp * kLinesPerSubpage;
         l < (sp + 1) * kLinesPerSubpage; ++l) {
        sum += bins_->binSize(p.code[l]);
    }
    return sum;
}

uint32_t
RmcController::subBase(const Page &p, unsigned sp) const
{
    uint32_t base = 0;
    for (unsigned s = 0; s < sp; ++s)
        base += p.sub_alloc[s];
    return base;
}

uint32_t
RmcController::lineOffset(const Page &p, LineIdx idx) const
{
    unsigned sp = subpageOf(idx);
    uint32_t off = subBase(p, sp);
    for (unsigned l = sp * kLinesPerSubpage; l < idx; ++l)
        off += bins_->binSize(p.code[l]);
    return off;
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
    st_overflow_move_ops_ += (old_used + kLineBytes - 1) /
                                   kLineBytes;

    p.code = codes;
    uint32_t new_used = 0;
    for (unsigned sp = 0; sp < kSubpages; ++sp) {
        p.sub_alloc[sp] = subPack(p, sp) + cfg_.hysteresis_bytes;
        new_used += p.sub_alloc[sp];
    }
    uint32_t alloc = pageBinBytes(std::min<uint32_t>(new_used, kPageBytes),
                                  PageSizing::kVariable4);
    if (escalate_raw || alloc < new_used) {
        // Full page: store raw, subpages degenerate to 1 KB each.
        setRaw(p);
        new_used = uint32_t(kPageBytes);
        storeRawPage(p, buf, trace, relayout_comp, OnRefusal::kStore);
    } else {
        store_.resize(p.chunks, p.chunk_id,
                      (alloc + uint32_t(kChunkBytes) - 1) /
                          uint32_t(kChunkBytes),
                      md_.oomRescue());
        storeLines(p.chunk_id, slots(p), buf);
        store_.deviceOps(p.chunk_id, 0, new_used, true, false, trace,
                         relayout_comp);
    }

    if (why == Relayout::kOsFault) {
        ++st_page_overflows_;
        ++st_page_faults_;
        CPR_OBS_EVENT(obs_, ObsEvent::kPageOverflow, pn, 0);
        CPR_OBS_EVENT(obs_, ObsEvent::kPageFault, pn,
                      uint32_t(cfg_.page_fault_cycles));
        st_page_fault_cycles_ += cfg_.page_fault_cycles;
        trace.addStall(AttribComp::kOsFault, cfg_.page_fault_cycles);
    } else if (why == Relayout::kShift) {
        ++st_subpage_shifts_;
    }
    st_overflow_move_ops_ += (new_used + kLineBytes - 1) /
                                   kLineBytes;
    if (pressure_ != nullptr)
        pressure_->onOpCost(PressureOp::kRelocation,
                            uint64_t((old_used + kLineBytes - 1) /
                                     kLineBytes) +
                                (new_used + kLineBytes - 1) / kLineBytes);
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

    uint16_t sz = bins_->binSize(p.code[idx]);
    uint32_t off = lineOffset(p, idx);
    trace.addFixed(AttribComp::kBstWalk, 1); // BST-side offset adder
    store_.lineAccess(p.chunk_id, pn, off, sz, false, trace,
                      st_split_fill_lines_);
    if (fault_.takePending() == FaultOutcome::kDetected) {
        store_.poisonLine(lineAddr(addr), p.chunk_id, off, sz, trace);
        data.fill(0);
        return;
    }
    if (loadSlot(p.chunk_id, {off, sz}, data))
        trace.addFixed(AttribComp::kDecompress, cfg_.compression_latency);
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

    if (!p.valid) {
        p.valid = true;
        p.zero = true;
        ++st_pages_touched_;
    }
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
        trace.addFixed(AttribComp::kCompress, cfg_.compression_latency);
        relayout(pn, p, codes, idx, data, Relayout::kFirst, trace);
        return;
    }

    trace.addFixed(AttribComp::kCompress, cfg_.compression_latency);
    unsigned code = p.code[idx];

    if (enc.bin <= code) {
        // Fits its slot.
        if (enc.zero && code == 0)
            ++st_zero_wbs_;
        else
            writeSlot(pn, p.chunk_id,
                      {lineOffset(p, idx), bins_->binSize(code)}, data, enc,
                      trace, st_split_wb_lines_);
        return;
    }

    // Line overflow: try to absorb it in the subpage's hysteresis.
    ++st_line_overflows_;
    CPR_OBS_EVENT(obs_, ObsEvent::kLineOverflow, pn, idx);
    unsigned sp = subpageOf(idx);
    LineIdx sp_end = LineIdx((sp + 1) * kLinesPerSubpage);
    std::array<uint8_t, kLinesPerPage> codes = p.code;
    codes[idx] = uint8_t(enc.bin);
    uint32_t new_pack = 0;
    for (unsigned l = sp * kLinesPerSubpage; l < sp_end; ++l)
        new_pack += bins_->binSize(codes[l]);

    if (new_pack <= p.sub_alloc[sp]) {
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
        st_overflow_move_ops_ +=
            2ull * ((sub_end - moved_from + kLineBytes - 1) /
                    kLineBytes);
        ++st_hysteresis_absorbs_;
        return;
    }

    // Subpage outgrew its slack: rebuild the page layout. If the new
    // total still fits the current allocation it is a subpage shift;
    // otherwise the OS must reallocate (page fault).
    uint32_t total = 0;
    for (unsigned s = 0; s < kSubpages; ++s) {
        uint32_t pack = 0;
        for (unsigned l = s * kLinesPerSubpage;
             l < (s + 1) * kLinesPerSubpage; ++l) {
            pack += bins_->binSize(codes[l]);
        }
        total += pack + cfg_.hysteresis_bytes;
    }
    bool os_fault = pageBinBytes(std::min<uint32_t>(total, kPageBytes),
                                 PageSizing::kVariable4) >
                    p.allocBytes();
    relayout(pn, p, codes, idx, data,
             os_fault ? Relayout::kOsFault : Relayout::kShift, trace);
}

} // namespace compresso
