#include "core/rmc_controller.h"

#include <cassert>

#include "prof/profiler.h"
#include "packing/linepack.h"

namespace compresso {

// The original RMC used ratio-optimal sizes: the legacy bins.
RmcController::RmcController(const RmcConfig &cfg)
    : CompressedController(cfg.installed_bytes, /*stream_buffer=*/false,
                           cfg.bst,
                           {.region_base = Addr(1) << 42,
                            .hit_comp = AttribComp::kBstWalk,
                            .miss_comp = AttribComp::kBstWalk,
                            .os_aware = true},
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
RmcController::recode(PageNum pn, Page &p,
                      const std::array<uint8_t, kLinesPerPage> &codes,
                      LineIdx idx, const Line &raw, OsFault fault,
                      McTrace &trace)
{
    // The subpages packed by the new codes plus their slack; raw 1 KB
    // subpages when that outgrows the page size.
    auto lay_out = [&](bool admitted) -> std::optional<Layout> {
        p.code = codes;
        uint32_t alloc = pageAlloc(codes, p.sub_alloc);
        uint32_t span = subBase(p, kSubpages);
        if (!admitted || alloc < span) {
            setRaw(p);
            return std::nullopt;
        }
        return Layout{slots(p), span, alloc};
    };
    relayout(pn, p, slots(p), subBase(p, kSubpages), idx, raw, fault, trace,
             lay_out);
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
    inflatePage(p, slots(p), subBase(p, kSubpages), trace);
    setRaw(p);
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
        trace.addFixed(AttribComp::kCompress, kBpcLatency);
        recode(pn, p, codes, idx, data, OsFault::kNone, trace);
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
    if (!os_fault)
        ++st_subpage_shifts_;
    recode(pn, p, codes, idx, data,
           os_fault ? OsFault::kAfterMove : OsFault::kNone, trace);
}

} // namespace compresso
