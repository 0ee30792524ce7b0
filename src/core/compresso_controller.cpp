#include "core/compresso_controller.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "check/invariant_auditor.h"
#include "prof/profiler.h"

namespace compresso {

/** Checked builds audit the touched page at every state-mutation
 *  boundary; release builds compile the hook away entirely. */
#ifdef COMPRESSO_CHECKED_BUILD
#define CPR_CHECKED_AUDIT(page, site) checkedAudit((page), (site))
#else
#define CPR_CHECKED_AUDIT(page, site) ((void)0)
#endif

// The metadata region sits at 1 TB, disjoint from the data chunks,
// which grow up from 0.
CompressoController::CompressoController(const CompressoConfig &cfg)
    : CompressedController(
          cfg.installed_bytes, /*stream_buffer=*/true, cfg.mdcache,
          {.region_base = Addr(1) << 40, .throttle_skips_rewrite = true},
          makeCompressor(cfg.compressor), *cfg.line_bins),
      cfg_(cfg),
      offsets_(*bins_)
{
    stats_.stat("md_write_ops"); // reported even when zero
}

void
CompressoController::attachObserver(Observer *obs)
{
    CompressedController::attachObserver(obs);
    h_page_alloc_ = obs ? obs->histogram("mc.page_alloc_bytes") : nullptr;
    h_page_free_ = obs ? obs->histogram("mc.page_free_bytes") : nullptr;
    h_repack_cost_ = obs ? obs->histogram("mc.repack_cost_ops") : nullptr;
}

void
CompressoController::predictorPageOverflow(PageNum page)
{
    bool was = predictor_.armed();
    predictor_.onPageOverflow();
    if (predictor_.armed() != was)
        CPR_OBS_EVENT(obs_, ObsEvent::kPredictorFlip, page, 1);
}

void
CompressoController::predictorPageShrink(PageNum page)
{
    bool was = predictor_.armed();
    predictor_.onPageShrink();
    if (predictor_.armed() != was)
        CPR_OBS_EVENT(obs_, ObsEvent::kPredictorFlip, page, 0);
}

// ---------------------------------------------------------------------
// Metadata helpers
// ---------------------------------------------------------------------

CompressoController::PageShadow &
CompressoController::shadow(PageNum page)
{
    return shadow_[page];
}

const MetadataEntry &
CompressoController::pageMeta(PageNum page)
{
    return pages_[page];
}

// ---------------------------------------------------------------------
// Layout helpers
// ---------------------------------------------------------------------

uint32_t
CompressoController::irBase(const MetadataEntry &m) const
{
    // The inflation room starts at the next 64 B boundary past the
    // packed lines so inflated lines are always single-access.
    return uint32_t(roundUp(packBytes(m.line_code), kLineBytes));
}

uint32_t
CompressoController::pageAlloc(
    const std::array<uint8_t, kLinesPerPage> &codes) const
{
    return pageBinBytes(uint32_t(roundUp(packBytes(codes), kLineBytes)),
                        cfg_.page_sizing);
}

int
CompressoController::inflateSlot(const MetadataEntry &m, LineIdx idx) const
{
    for (unsigned s = 0; s < m.inflate_count; ++s)
        if (m.inflate_line[s] == idx)
            return int(s);
    return -1;
}

CompressoController::Slots
CompressoController::slots(const MetadataEntry &m) const
{
    Slots out;
    uint32_t ir = uint32_t(roundUp(packSlots(m.line_code, out), kLineBytes));
    for (unsigned s = 0; s < m.inflate_count; ++s)
        out[m.inflate_line[s]] = {ir + s * uint32_t(kLineBytes),
                                  uint16_t(kLineBytes)};
    return out;
}

CompressoController::Slot
CompressoController::lineSlot(const MetadataEntry &m, LineIdx idx) const
{
    if (!m.compressed)
        return {idx * uint32_t(kLineBytes), uint16_t(kLineBytes)};
    int s = inflateSlot(m, idx);
    if (s >= 0)
        return {irBase(m) + uint32_t(s) * uint32_t(kLineBytes),
                uint16_t(kLineBytes)};
    return {offsets_.offset(m.line_code, idx),
            bins_->binSize(m.line_code[idx])};
}

// ---------------------------------------------------------------------
// Page lifecycle
// ---------------------------------------------------------------------

void
CompressoController::firstTouch(MetadataEntry &m)
{
    // OSPA pages start as copy-on-write zero pages.
    CompressedController::firstTouch(m);
    m.compressed = false;
    m.chunks = 0;
    m.inflate_count = 0;
    m.free_space = 0;
    m.line_code.fill(0);
}

bool
CompressoController::handleLineOverflow(PageNum page, MetadataEntry &m,
                                        LineIdx idx, const Line &raw,
                                        const Encoded &enc, McTrace &trace)
{
    CPR_PROF_SCOPE(ProfPhase::kMcOverflow);
    // Free growth: if nothing is stored after this slot (typical for
    // in-order first writes filling a fresh page), growing the slot
    // moves no data — only the metadata code changes and the page may
    // gain a chunk. This is not the data-movement overflow the
    // predictor hunts for.
    bool tail_empty = m.inflate_count == 0;
    if (tail_empty) {
        for (LineIdx i = idx + 1; i < kLinesPerPage && tail_empty; ++i)
            tail_empty = m.line_code[i] == 0;
    }
    if (tail_empty) {
        ++st_free_slot_growths_;
        uint32_t old_alloc = allocBytes(m);
        uint8_t old_code = m.line_code[idx];
        m.line_code[idx] = uint8_t(enc.bin);
        uint32_t new_alloc = pageAlloc(m.line_code);
        if (new_alloc > old_alloc) {
            // Growing to admit a first write is not overflow pressure:
            // nothing moved (chunked) and no data shrank. Keep it out
            // of the predictor's page-overflow signal.
            ++st_free_page_grows_;
            if (cfg_.page_sizing == PageSizing::kVariable4 &&
                old_alloc > 0) {
                // Variable-size chunks: growth relocates the page.
                uint32_t moved = offsets_.offset(m.line_code, idx);
                st_overflow_move_ops_ += 2ull * lineBlocks(moved);
                store_.deviceOps(m.mpfn, 0, moved, false, false, trace,
                                 AttribComp::kOverflowRelayout);
            }
            if (!resizeFor(m, new_alloc)) {
                // Machine OOM: drop the write, keeping the old line.
                m.line_code[idx] = old_code;
                return false;
            }
            if (cfg_.page_sizing == PageSizing::kVariable4) {
                uint32_t moved = offsets_.offset(m.line_code, idx);
                store_.deviceOps(m.mpfn, 0, moved, true, false, trace,
                                 AttribComp::kOverflowRelayout);
            }
        }
        writeSlot(page, m.mpfn, lineSlot(m, idx), raw, enc, trace,
                  st_split_wb_lines_);
        return true;
    }

    ++st_line_overflows_;
    CPR_OBS_EVENT(obs_, ObsEvent::kLineOverflow, page, idx);
    uint8_t *counter = md_.cache().predictorCounter(page);
    predictor_.onLineOverflow(counter);

    // Sec. III: place the inflated line, uncompressed, in the
    // inflation room, if the current allocation has room for it.
    if (cfg_.inflation_room && m.inflate_count < kMaxInflatedLines) {
        if (usedBytes(m) + kLineBytes <= allocBytes(m)) {
            placeInIr(m, idx, raw, trace);
            return true;
        }
    }

    // The page must grow. Sec. IV-B2: if this page is receiving
    // streaming incompressible data while the system is experiencing
    // page overflows, skip the incremental size bins and speculatively
    // inflate straight to uncompressed 4 KB. Speculative inflations
    // consume whole pages of machine memory, so under pressure the
    // governor bounds how many are in flight per window.
    if (cfg_.overflow_prediction && predictor_.predictInflate(counter)) {
        if (pressure_ == nullptr ||
            pressure_->admitOp(PressureOp::kInflation,
                               2ull * kLinesPerPage)) {
            ++st_predictor_inflations_;
            CPR_OBS_EVENT(obs_, ObsEvent::kInflation, page, 1);
            if (inflateWithLine(page, m, idx, raw, trace,
                                AttribComp::kOverflowRelayout))
                return true;
            // Machine OOM left the page compressed: fall through to
            // the bounded growth paths.
        } else {
            ++st_inflations_throttled_;
            CPR_OBS_EVENT(obs_, ObsEvent::kOpThrottled, page,
                          uint32_t(PressureOp::kInflation));
        }
    }

    // Sec. IV-B3: expand the inflation room by one chunk instead of
    // recompressing the page (Fig. 5c, Option 2).
    if (cfg_.inflation_room && cfg_.dynamic_ir_expansion &&
        cfg_.page_sizing == PageSizing::kChunked512 &&
        m.inflate_count < kMaxInflatedLines &&
        m.chunks < kChunksPerPage &&
        store_.resize(m.chunks, m.mpfn, m.chunks + 1, md_.oomRescue())) {
        ++st_dyn_ir_expansions_;
        // The page did outgrow its allocation; the expansion just made
        // the overflow cheap (1 write, no moves).
        ++st_page_overflows_;
        CPR_OBS_EVENT(obs_, ObsEvent::kPageOverflow, page, 1);
        predictorPageOverflow(page);
        placeInIr(m, idx, raw, trace);
        return true;
    }

    // Fall back to growing the slot in place, moving the lines
    // underneath (Fig. 1c / Fig. 5c Option 1). Repeated in-place
    // growth of the same page is the unbounded-stall shape the
    // watchdog hunts: when the relocation budget is blown, escalate
    // to the degradation ladder's safe state (one terminal inflation
    // to uncompressed 4 KB) so the page stops generating relocations.
    if (pressure_ != nullptr) {
        uint64_t est = 2ull * lineBlocks(usedBytes(m));
        if (!pressure_->admitOp(PressureOp::kRelocation, est)) {
            ++st_overflow_escalations_;
            CPR_OBS_EVENT(obs_, ObsEvent::kOpThrottled, page,
                          uint32_t(PressureOp::kRelocation));
            // Escalation the governor forced: attribute the terminal
            // inflation to pressure, not to ordinary overflow relayout.
            if (inflateWithLine(page, m, idx, raw, trace,
                                AttribComp::kPressureStall))
                return true;
            // OOM during escalation: in-place growth below is the
            // only remaining correct path.
        }
    }
    return growSlotInPlace(page, m, idx, raw, enc.bin, trace);
}

void
CompressoController::placeInIr(MetadataEntry &m, LineIdx idx,
                               const Line &raw, McTrace &trace)
{
    uint32_t off = usedBytes(m); // the next inflation-room slot
    m.inflate_line[m.inflate_count++] = uint8_t(idx);
    store_.deviceOps(m.mpfn, off, kLineBytes, true, false, trace,
                     AttribComp::kOverflowRelayout);
    store_.storeBytes(m.mpfn, off, raw.data(), kLineBytes);
    ++st_ir_placements_;
}

bool
CompressoController::inflateWithLine(PageNum page, MetadataEntry &m,
                                     LineIdx idx, const Line &raw,
                                     McTrace &trace, AttribComp comp)
{
    inflateToUncompressed(page, m, trace, comp);
    if (m.compressed)
        return false;
    shadow(page).predictor_inflated = true;
    uint32_t off = idx * uint32_t(kLineBytes);
    store_.deviceOps(m.mpfn, off, kLineBytes, true, false, trace, comp);
    store_.storeBytes(m.mpfn, off, raw.data(), kLineBytes);
    return true;
}

bool
CompressoController::growSlotInPlace(PageNum page, MetadataEntry &m,
                                     LineIdx idx, const Line &raw,
                                     unsigned bin, McTrace &trace)
{
    if (st_slot_growths_ == nullptr)
        st_slot_growths_ = &stats_.stat("slot_growths");
    ++*st_slot_growths_;

    // Gather every stored line (functional rebuild).
    const Slots old = slots(m);
    PageLines buf;
    gather(m.mpfn, old, buf);
    buf[idx] = raw;
    uint32_t old_used = usedBytes(m);

    // New slot codes: keep existing slots (no underflow harvesting on
    // this path — that is the repacking optimization), but inflated
    // lines must get real slots, sized for their current data.
    std::array<uint8_t, kLinesPerPage> codes = m.line_code;
    PageShadow &sh = shadow(page);
    for (unsigned s = 0; s < m.inflate_count; ++s) {
        LineIdx li = m.inflate_line[s];
        codes[li] = std::max(codes[li], sh.actual_bin[li]);
    }
    codes[idx] = uint8_t(bin);

    Slots grown;
    uint32_t new_used = uint32_t(roundUp(packSlots(codes, grown), kLineBytes));
    uint32_t new_alloc = pageAlloc(codes);

    bool page_grew = new_alloc > allocBytes(m);
    if (page_grew) {
        ++st_page_overflows_;
        CPR_OBS_EVENT(obs_, ObsEvent::kPageOverflow, page, 0);
        predictorPageOverflow(page);
    }

    // Movement cost: everything from the grown slot onward is
    // rewritten. A grown page moves entirely under variable-size
    // chunks (relocation); folding an inflated line back into a slot
    // can shift offsets before idx, so that also rewrites from 0.
    bool rewrite_all =
        (cfg_.page_sizing == PageSizing::kVariable4 && page_grew) ||
        m.inflate_count > 0;
    uint32_t move_from = rewrite_all ? 0 : old[idx].off;
    uint32_t moved = old_used > move_from ? old_used - move_from : 0;
    unsigned move_blocks = lineBlocks(moved);
    st_overflow_move_ops_ += 2ull * move_blocks;
    if (pressure_ != nullptr)
        pressure_->onOpCost(PressureOp::kRelocation, 2ull * move_blocks);
    // Enqueue bandwidth for the move (reads then writes, background).
    if (m.chunks > 0) {
        store_.deviceOps(m.mpfn, move_from, moved, false, false, trace,
                         AttribComp::kOverflowRelayout);
    }

    if (!resizeFor(m, new_alloc))
        return false; // machine OOM: drop the resize, data unchanged

    m.line_code = codes;
    m.inflate_count = 0;

    // Rewrite the moved region in the new layout: the lines before
    // idx keep their slots unless everything moved.
    storeLines(m.mpfn, grown, buf, rewrite_all ? 0 : idx);
    if (new_used > move_from)
        store_.deviceOps(m.mpfn, move_from, new_used - move_from, true,
                         false, trace, AttribComp::kOverflowRelayout);
    return true;
}

void
CompressoController::inflateToUncompressed(PageNum page, MetadataEntry &m,
                                           McTrace &trace, AttribComp comp)
{
    // Read out the whole compressed page, then store it raw in 8
    // chunks. Future streaming writebacks become 1:1 accesses.
    PageLines buf;
    uint32_t old_used = usedBytes(m);
    readPage(m, slots(m), old_used, buf, trace, comp);
    uint64_t inflate_cost = lineBlocks(old_used) + kLinesPerPage;
    st_overflow_move_ops_ += inflate_cost;
    if (pressure_ != nullptr)
        pressure_->onOpCost(PressureOp::kInflation, inflate_cost);

    if (!storeRawPage(m, buf, trace, comp, OnRefusal::kDrop))
        return;
    m.compressed = false;
    m.inflate_count = 0;
    m.line_code.fill(uint8_t(bins_->count() - 1));
    md_.cache().reshape(page, m.halfCacheable());
}

void
CompressoController::repackPage(PageNum page, McTrace &trace)
{
    CPR_PROF_SCOPE(ProfPhase::kMcRepack);
    auto mit = pages_.find(page);
    if (mit == pages_.end())
        return;
    MetadataEntry &m = mit->second;
    if (!m.valid || m.zero || m.chunks == 0)
        return;
    // Repacking is a maintenance optimization (Sec. IV-B4): under
    // pressure the governor may defer it outright — skipping is always
    // safe, the page just keeps its current (larger) footprint.
    if (pressure_ != nullptr) {
        uint64_t est = 2ull * lineBlocks(usedBytes(m));
        if (!pressure_->admitOp(PressureOp::kRepack, est)) {
            ++st_repacks_throttled_;
            CPR_OBS_EVENT(obs_, ObsEvent::kOpThrottled, page,
                          uint32_t(PressureOp::kRepack));
            return;
        }
    }
    MetadataFrontEnd::Op op(md_, trace, page);
    PageShadow &sh = shadow(page);

    uint32_t old_used = usedBytes(m);

    // New layout straight from the actual compressibility.
    Slots packed;
    uint32_t new_pack = packSlots(sh.actual_bin, packed);

    ++st_repacks_;
    unsigned read_blocks = lineBlocks(old_used);
    st_repack_read_ops_ += read_blocks;
    store_.deviceOps(m.mpfn, 0, old_used, false, false, trace,
                     AttribComp::kRepack);
    CPR_OBS_HIST(h_page_free_, m.free_space);

    if (new_pack == 0) { // every line zero
        store_.resize(m.chunks, m.mpfn, 0);
        m.zero = true;
        m.compressed = false;
        m.inflate_count = 0;
        m.free_space = 0;
        m.line_code.fill(0);
        predictorPageShrink(page);
        CPR_OBS_EVENT(obs_, ObsEvent::kRepack, page, read_blocks);
        CPR_OBS_HIST(h_repack_cost_, read_blocks);
        CPR_OBS_HIST(h_page_alloc_, 0);
        if (pressure_ != nullptr)
            pressure_->onOpCost(PressureOp::kRepack, read_blocks);
        CPR_CHECKED_AUDIT(page, "repack (to zero page)");
        return;
    }

    PageLines buf;
    gather(m.mpfn, slots(m), buf);
    uint32_t new_used = uint32_t(roundUp(new_pack, kLineBytes));
    uint32_t new_alloc = pageAlloc(sh.actual_bin);
    // Both callers need free_space (alloc - new_alloc, audited) >= 512.
    assert(new_alloc < kPageBytes);

    resizeFor(m, new_alloc);
    m.line_code = sh.actual_bin;
    m.inflate_count = 0;
    m.compressed = true;
    m.free_space = 0;
    sh.predictor_inflated = false;
    storeLines(m.mpfn, packed, buf);
    unsigned write_blocks = lineBlocks(new_used);
    st_repack_write_ops_ += write_blocks;
    store_.deviceOps(m.mpfn, 0, new_used, true, false, trace,
                     AttribComp::kRepack);
    predictorPageShrink(page);
    CPR_OBS_EVENT(obs_, ObsEvent::kRepack, page,
                  read_blocks + write_blocks);
    CPR_OBS_HIST(h_repack_cost_, read_blocks + write_blocks);
    CPR_OBS_HIST(h_page_alloc_, new_alloc);
    if (pressure_ != nullptr)
        pressure_->onOpCost(PressureOp::kRepack,
                            read_blocks + write_blocks);
    CPR_CHECKED_AUDIT(page, "repack");
}

void
CompressoController::updateFreeSpace(MetadataEntry &m, const PageShadow &sh)
{
    // A compressed page whose slots are all top-bin is laid out
    // exactly like a raw page (offsets i*64, lines stored raw).
    // Clearing the compressed bit costs nothing and lets the metadata
    // cache keep only the first half of its entry (Sec. IV-B5).
    if (m.compressed && m.inflate_count == 0 &&
        packBytes(m.line_code) == kPageBytes)
        m.compressed = false;

    uint32_t potential_alloc = pageAlloc(sh.actual_bin);
    uint32_t alloc = allocBytes(m);
    uint32_t free_b = alloc > potential_alloc ? alloc - potential_alloc : 0;
    m.free_space = uint16_t(std::min<uint32_t>(free_b, 4095));
}

// ---------------------------------------------------------------------
// Fault handling (degradation ladder: correct -> rebuild -> inflate ->
// poison; fault/fault_injector.h)
// ---------------------------------------------------------------------

MetadataFrontEnd::PageState
CompressoController::mdPageState(PageNum page) const
{
    const MetadataEntry &m = pages_.at(page);
    return {m.valid, m.valid && !m.zero && m.compressed};
}

uint64_t
CompressoController::mdRewalkEstimate(PageNum page) const
{
    const MetadataEntry &m = pages_.at(page);
    if (!m.valid || m.zero || m.chunks == 0)
        return 1;
    return 1 + lineBlocks(usedBytes(m));
}

void
CompressoController::mdRewalk(PageNum page, McTrace &trace)
{
    // Re-walk the page's stored bytes to recompute the layout fields.
    const MetadataEntry &m = pages_.at(page);
    if (m.valid && !m.zero && m.chunks > 0)
        store_.deviceOps(m.mpfn, 0, usedBytes(m), false, false, trace,
                         AttribComp::kFaultRecovery);
}

void
CompressoController::mdInflate(PageNum page, McTrace &trace)
{
    MetadataEntry &m = pages_.at(page);
    inflateToUncompressed(page, m, trace, AttribComp::kFaultRecovery);
    shadow(page).predictor_inflated = true;
    updateFreeSpace(m, shadow(page));
}

void
CompressoController::mdEvicted(PageNum page, McTrace &trace)
{
    if (!cfg_.repack_on_evict)
        return;
    auto mit = pages_.find(page);
    if (mit == pages_.end())
        return;
    const MetadataEntry &m = mit->second;
    // Repack only if at least one 512 B chunk is recoverable
    // (Sec. IV-B4).
    if (m.valid && !m.zero && m.free_space >= kChunkBytes)
        repackPage(page, trace);
}

bool
CompressoController::recoverCorruptPage(PageNum page)
{
    auto mit = pages_.find(page);
    if (mit == pages_.end())
        return false;
    MetadataEntry &m = mit->second;

    // Cross-structure damage (chunks leaked, double-mapped, dead or
    // out of range) cannot be repaired from one page's view; only the
    // abort is safe there.
    const AuditReport damage = auditPage(page);
    for (const Violation &v : damage.violations()) {
        switch (v.kind) {
        case ViolationKind::kChunkLeak:
        case ViolationKind::kChunkDoubleMap:
        case ViolationKind::kChunkDead:
        case ViolationKind::kChunkOutOfRange:
        case ViolationKind::kMpfnMissing:
            return false;
        default:
            break;
        }
    }

    // Step 1: recompute derived fields (free_space is the common
    // casualty) and clear stale mpfn slots.
    for (unsigned c = m.chunks; c < kChunksPerPage; ++c)
        m.mpfn[c] = kNoChunk;
    bool codes_ok = true;
    for (uint8_t c : m.line_code)
        codes_ok &= c < bins_->count();
    if (codes_ok && m.valid && !m.zero) {
        updateFreeSpace(m, shadow(page));
        if (auditPage(page).clean()) {
            CPR_OBS_EVENT(obs_, ObsEvent::kFaultRecovery, page,
                          uint32_t(FaultRung::kAuditRecovery));
            return true;
        }
    }

    // Step 2: the layout itself is untrustworthy. Every mapped chunk
    // is live (checked above), so releasing them is safe; retire the
    // page to a poisoned zero state and surface the loss.
    store_.resize(m.chunks, m.mpfn, 0);
    m = MetadataEntry{};
    m.valid = true;
    m.zero = true;
    shadow(page) = PageShadow{};
    md_.cache().invalidate(page);
    md_.poisonPage(page);
    return auditPage(page).clean();
}

// ---------------------------------------------------------------------
// Public operations
// ---------------------------------------------------------------------

void
CompressoController::fillLine(Addr addr, Line &data, McTrace &trace)
{
    CPR_PROF_SCOPE(ProfPhase::kMcFill);
    PageNum page = pageOf(addr);
    LineIdx idx = lineOf(addr);
    MetadataFrontEnd::Op op(md_, trace, page);
    ++st_fills_;

    MetadataEntry &m = pages_[page];
    if (!md_.access(addr, false, trace, m.halfCacheable())) {
        data.fill(0); // retired by the degradation ladder
        return;
    }

    if (!m.valid || m.zero) {
        data.fill(0);
        ++st_zero_fills_;
        return;
    }

    Slot slot = lineSlot(m, idx);
    if (slot.bytes == 0) {
        data.fill(0);
        ++st_zero_fills_;
        return;
    }
    // Raw pages and inflated lines are read at a fixed offset; packed
    // lines pay the offset circuit, which is metadata-side work: fold
    // it into the mdcache_hit component (DESIGN.md §15).
    bool packed = m.compressed && inflateSlot(m, idx) < 0;
    if (packed)
        trace.addFixed(AttribComp::kMdcacheHit, offsets_.extraCycles());
    store_.lineAccess(m.mpfn, page, slot.off, slot.bytes, false, trace,
                      st_split_fill_lines_);
    if (!readSlot(addr, m.mpfn, slot, kBpcLatency, data, trace) || !packed)
        return;

    // Free prefetch: neighboring compressed lines that arrived whole
    // within the fetched 64 B bursts (Sec. VII-A).
    uint32_t blk_lo = (slot.off / kLineBytes) * uint32_t(kLineBytes);
    uint32_t blk_hi = uint32_t(roundUp(slot.off + slot.bytes, kLineBytes));
    const Slots all = slots(m);
    for (LineIdx i = 0; i < kLinesPerPage; ++i) {
        Slot s = all[i];
        if (i == idx || s.bytes == 0 || inflateSlot(m, i) >= 0)
            continue;
        if (s.off >= blk_lo && s.off + s.bytes <= blk_hi &&
            trace.co_fetched.size() < 8) {
            trace.co_fetched.push_back(pageOf(addr) * kPageBytes +
                                       Addr(i) * kLineBytes);
        }
    }
    st_co_fetched_lines_ += trace.co_fetched.size();
}

void
CompressoController::writebackLine(Addr addr, const Line &data,
                                   McTrace &trace)
{
    CPR_PROF_SCOPE(ProfPhase::kMcWriteback);
    PageNum page = pageOf(addr);
    LineIdx idx = lineOf(addr);
    MetadataFrontEnd::Op op(md_, trace, page);
    ++st_writebacks_;

    MetadataEntry &m = pages_[page];
    if (!md_.access(addr, true, trace, m.halfCacheable()))
        return; // the page is retired

    Encoded enc = encode(data);
    CPR_OBS_HIST(h_line_bytes_, enc.zero ? 0 : enc.bytes.size());
    PageShadow &sh = shadow(page);

    if (!m.valid)
        firstTouch(m);

    if (m.zero) {
        if (enc.zero) {
            ++st_zero_wbs_;
            return;
        }
        // First real data in the page: give the line a right-sized
        // slot directly (all other lines are zero, nothing moves).
        m.zero = false;
        m.compressed = true;
        m.line_code.fill(0);
        m.line_code[idx] = uint8_t(enc.bin);
        sh.actual_bin.fill(0);
        resizeFor(m, pageAlloc(m.line_code));
    }

    trace.addFixed(AttribComp::kCompress, kBpcLatency);

    // The line's slot holds it if the slot's bin is at least the
    // line's; a raw page's and an inflated line's 64 B slots hold any.
    Slot slot = lineSlot(m, idx);
    bool in_place = bins_->binSize(enc.bin) <= slot.bytes;
    bool stored = true;
    if (in_place) {
        if (slot.bytes == 0)
            ++st_zero_wbs_;
        else
            writeSlot(page, m.mpfn, slot, data, enc, trace,
                      st_split_wb_lines_);
        if (enc.bin < sh.actual_bin[idx]) {
            ++st_line_underflows_;
            predictor_.onLineUnderflow(md_.cache().predictorCounter(page));
        }
    } else {
        stored = handleLineOverflow(page, m, idx, data, enc, trace);
    }
    // A dropped write leaves the old line, and its bin, stored.
    if (stored)
        sh.actual_bin[idx] = uint8_t(enc.bin);
    updateFreeSpace(m, sh);
    CPR_CHECKED_AUDIT(page, in_place ? "writeback (in place)"
                                     : "writeback (overflow/inflation)");
}

// ---------------------------------------------------------------------
// Accounting & maintenance
// ---------------------------------------------------------------------

void
CompressoController::pageFreed(PageNum page)
{
    shadow_.erase(page);
    CPR_CHECKED_AUDIT(page, "freePage (balloon release)");
}

void
CompressoController::repackAll()
{
    McTrace scratch;
    MetadataFrontEnd::Op op(md_, scratch, kNoPage);
    std::vector<PageNum> pages;
    pages.reserve(pages_.size());
    for (const auto &[page, m] : pages_)
        if (m.valid && !m.zero && m.free_space >= kChunkBytes)
            pages.push_back(page);
    // In page order, not the page table's hash order: the chunk free
    // list is LIFO, so the order decides which chunks each page gets.
    std::sort(pages.begin(), pages.end());
    for (PageNum p : pages)
        repackPage(p, scratch);
}

// ---------------------------------------------------------------------
// Invariant audit (src/check)
// ---------------------------------------------------------------------

AuditReport
CompressoController::audit() const
{
    AuditReport rep;
    InvariantAuditor auditor(*bins_, cfg_.page_sizing);
    InvariantAuditor::ChunkCrossCheck xcheck;
    for (const auto &[page, m] : pages_) {
        auto sit = shadow_.find(page);
        const uint8_t *actual_bin =
            sit != shadow_.end() && m.valid && !m.zero
                ? sit->second.actual_bin.data()
                : nullptr;
        auditor.checkCompressoPage(page, m, actual_bin, store_.allocator(),
                                   rep);
        if (m.valid && !m.zero)
            for (unsigned c = 0; c < m.chunks && c < kChunksPerPage;
                 ++c)
                if (m.mpfn[c] != kNoChunk)
                    xcheck.mapChunk(page, m.mpfn[c], rep);
    }
    xcheck.finish(store_.allocator(), rep);
    return rep;
}

AuditReport
CompressoController::auditPage(PageNum page) const
{
    AuditReport rep;
    InvariantAuditor auditor(*bins_, cfg_.page_sizing);
    auto mit = pages_.find(page);
    if (mit != pages_.end()) {
        auto sit = shadow_.find(page);
        const uint8_t *actual_bin =
            sit != shadow_.end() && mit->second.valid &&
                    !mit->second.zero
                ? sit->second.actual_bin.data()
                : nullptr;
        auditor.checkCompressoPage(page, mit->second, actual_bin,
                                   store_.allocator(), rep);
    }
    if (store_.allocator().usedChunks() > store_.allocator().totalChunks())
        rep.add(ViolationKind::kChunkCountBad, kNoPage, kNoChunk,
                "allocator used > total");
    return rep;
}

void
CompressoController::checkedAudit(PageNum page, const char *site)
{
    AuditReport rep = auditPage(page);
    if (rep.clean())
        return;
#ifdef COMPRESSO_FAULT_RECOVERY
    // Degrade instead of abort — but only when a fault campaign with
    // recovery enabled is running; plain checked builds (and the
    // auditor's own death tests) keep the fail-stop contract.
    if (fault_.recoveryEnabled() && recoverCorruptPage(page)) {
        ++stats_["fault_audit_recoveries"];
        fault_.injector()->noteAuditRecovery();
        return;
    }
#endif
    std::fprintf(stderr,
                 "COMPRESSO_CHECKED_BUILD: invariant violation "
                 "after %s (page %llu)\n%s",
                 site, static_cast<unsigned long long>(page),
                 rep.summary().c_str());
    std::abort();
}

} // namespace compresso
