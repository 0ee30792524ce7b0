#include "core/dmc_controller.h"

#include <cassert>
#include <numeric>

#include "prof/profiler.h"
#include "packing/linepack.h"

namespace compresso {

namespace {

constexpr Cycle kHotLatency = 6;  ///< BDI decompression
constexpr Cycle kColdLatency = 64; ///< LZ over a 1 KB block

} // namespace

// BDI for hot pages as in the original design, LZ for cold ones.
DmcController::DmcController(const DmcConfig &cfg)
    : CompressedController(cfg.installed_bytes, /*stream_buffer=*/false,
                           cfg.mdcache, {.region_base = Addr(1) << 43},
                           makeCompressor("bdi"), compressoBins()),
      cfg_(cfg),
      cold_codec_(makeCompressor("lz"))
{
}

uint32_t
DmcController::pageAlloc(uint32_t bytes) const
{
    return pageBinBytes(uint32_t(roundUp(bytes, kLineBytes)),
                        PageSizing::kVariable4);
}

void
DmcController::loadColdBlock(const Page &p, unsigned b, uint32_t off,
                             Line *out, unsigned n) const
{
    std::vector<uint8_t> raw(p.cold_bytes[b]);
    store_.loadBytes(p.chunk_id, off, raw.data(), raw.size());
    BitReader r(raw.data(), raw.size() * 8);
    for (unsigned l = 0; l < n; ++l) {
        bool ok = cold_codec_->decompress(r, out[l]);
        assert(ok && "corrupt DMC cold block");
        (void)ok;
    }
}

void
DmcController::gatherPage(const Page &p, PageLines &buf, McTrace &trace,
                          AttribComp comp)
{
    if (!p.valid || p.zero) {
        for (auto &l : buf)
            l.fill(0);
        return;
    }
    if (!p.cold) {
        Slots hot;
        uint32_t used = packSlots(p.code, hot);
        readPage(p, hot, used, buf, trace, comp);
        return;
    }
    // Cold: decompress every block (line streams back to back).
    uint32_t off = 0;
    for (unsigned b = 0; b < kColdBlocks; ++b) {
        loadColdBlock(p, b, off, &buf[b * kLinesPerColdBlock],
                      kLinesPerColdBlock);
        store_.deviceOps(p.chunk_id, off, p.cold_bytes[b], false, false,
                         trace, comp);
        off += p.cold_bytes[b];
    }
}

void
DmcController::layoutHot(Page &p, const PageLines &buf, McTrace &trace,
                         AttribComp comp)
{
    for (LineIdx l = 0; l < kLinesPerPage; ++l)
        p.code[l] = uint8_t(binOf(buf[l]));
    p.cold = false;
    Slots hot;
    uint32_t pack = packSlots(p.code, hot);
    if (pack == 0) { // all lines zero
        p.zero = true;
        p.code.fill(0);
        store_.resize(p.chunks, p.chunk_id, 0);
        return;
    }
    p.zero = false;
    resizeFor(p, pageAlloc(pack));
    storeLines(p.chunk_id, hot, buf);
    store_.deviceOps(p.chunk_id, 0, uint32_t(roundUp(pack, kLineBytes)), true,
                     false, trace, comp);
}

void
DmcController::demoteToCold(PageNum pn, Page &p, McTrace &trace)
{
    CPR_PROF_SCOPE(ProfPhase::kMcRepack);
    size_t ops_before = trace.ops.size();
    PageLines buf;
    gatherPage(p, buf, trace);
    st_migration_ops_ += trace.ops.size();

    // Compress each 1 KB block as one unit (line streams concatenated).
    std::array<std::vector<uint8_t>, kColdBlocks> blocks;
    uint32_t total = 0;
    for (unsigned b = 0; b < kColdBlocks; ++b) {
        BitWriter w;
        for (unsigned l = 0; l < kLinesPerColdBlock; ++l)
            cold_codec_->compress(buf[b * kLinesPerColdBlock + l], w);
        blocks[b] = w.bytes();
        p.cold_bytes[b] = uint32_t(blocks[b].size());
        total += p.cold_bytes[b];
    }
    uint32_t alloc = pageAlloc(total);
    if (alloc < total) {
        // LZ expansion beyond a page never pays off: stay hot.
        layoutHot(p, buf, trace);
        if (pressure_ != nullptr)
            pressure_->onOpCost(PressureOp::kRepack,
                                trace.ops.size() - ops_before);
        return;
    }
    resizeFor(p, alloc);
    p.cold = true;
    uint32_t off = 0;
    for (unsigned b = 0; b < kColdBlocks; ++b) {
        store_.storeBytes(p.chunk_id, off, blocks[b].data(), blocks[b].size());
        off += p.cold_bytes[b];
    }
    store_.deviceOps(p.chunk_id, 0, total, true, false, trace,
                     AttribComp::kRepack);
    ++st_demotions_;
    CPR_OBS_EVENT(obs_, ObsEvent::kRepack, pn, 0);
    if (pressure_ != nullptr)
        pressure_->onOpCost(PressureOp::kRepack,
                            trace.ops.size() - ops_before);
}

void
DmcController::promoteToHot(PageNum pn, Page &p, McTrace &trace)
{
    CPR_PROF_SCOPE(ProfPhase::kMcRepack);
    size_t ops_before = trace.ops.size();
    PageLines buf;
    gatherPage(p, buf, trace);
    layoutHot(p, buf, trace);
    st_migration_ops_ += trace.ops.size();
    ++st_promotions_;
    CPR_OBS_EVENT(obs_, ObsEvent::kRepack, pn, 1);
    if (pressure_ != nullptr)
        pressure_->onOpCost(PressureOp::kRelocation,
                            trace.ops.size() - ops_before);
}

void
DmcController::decayEpoch(McTrace &trace)
{
    unsigned budget = 64; // bounded migration work per epoch
    for (auto &[pn, p] : pages_) {
        if (!p.valid || p.zero)
            continue;
        if (!p.touched_this_epoch && !p.cold && budget > 0) {
            // Maintenance migration: under pressure the governor may
            // deny it outright (demotion is an optimization, never
            // required for correctness).
            if (pressure_ != nullptr &&
                !pressure_->admitOp(PressureOp::kRepack,
                                    2ull * kLinesPerPage)) {
                ++st_demotions_throttled_;
                CPR_OBS_EVENT(obs_, ObsEvent::kOpThrottled, pn,
                              uint32_t(PressureOp::kRepack));
                p.touched_this_epoch = false;
                continue;
            }
            migrating_page_ = pn;
            demoteToCold(pn, p, trace);
            migrating_page_ = kNoPage;
            --budget;
        }
        p.touched_this_epoch = false;
    }
}

bool
DmcController::isCold(PageNum pn) const
{
    auto it = pages_.find(pn);
    return it != pages_.end() && it->second.cold;
}

MetadataFrontEnd::PageState
DmcController::mdPageState(PageNum pn) const
{
    const Page &p = pages_.at(pn);
    bool raw_already = !p.cold;
    for (LineIdx l = 0; raw_already && l < kLinesPerPage; ++l)
        raw_already = p.code[l] == uint8_t(bins_->count() - 1);
    return {p.valid, p.valid && !p.zero && !raw_already};
}

uint64_t
DmcController::mdRewalkEstimate(PageNum pn) const
{
    return uint64_t(pages_.at(pn).chunks) * (kChunkBytes / kLineBytes) + 1;
}

void
DmcController::mdRewalk(PageNum pn, McTrace &trace)
{
    const Page &p = pages_.at(pn);
    if (!p.valid || p.zero || p.chunks == 0)
        return;
    uint32_t used = p.cold ? std::accumulate(p.cold_bytes.begin(),
                                             p.cold_bytes.end(), 0u)
                           : packBytes(p.code);
    store_.deviceOps(p.chunk_id, 0, used, false, false, trace,
                     AttribComp::kFaultRecovery);
}

void
DmcController::mdInflate(PageNum pn, McTrace &trace)
{
    Page &p = pages_.at(pn);
    PageLines buf;
    gatherPage(p, buf, trace, AttribComp::kFaultRecovery);
    p.cold = false;
    p.cold_bytes.fill(0);
    p.code.fill(uint8_t(bins_->count() - 1));
    storeRawPage(p, buf, trace, AttribComp::kFaultRecovery,
                 OnRefusal::kStore);
}

void
DmcController::fillLine(Addr addr, Line &data, McTrace &trace)
{
    CPR_PROF_SCOPE(ProfPhase::kMcFill);
    PageNum pn = pageOf(addr);
    LineIdx idx = lineOf(addr);
    MetadataFrontEnd::Op op(md_, trace, pn);
    ++st_fills_;

    Page &p = page(pn);
    p.touched_this_epoch = true;
    if (!md_.access(addr, false, trace)) {
        data.fill(0); // retired by the degradation ladder
        return;
    }

    if (!p.valid || p.zero) {
        data.fill(0);
        ++st_zero_fills_;
        return;
    }

    if (p.cold) {
        // Fetch + decompress the whole 1 KB block for one line.
        unsigned b = idx / kLinesPerColdBlock;
        uint32_t off = 0;
        for (unsigned i = 0; i < b; ++i)
            off += p.cold_bytes[i];
        store_.deviceOps(p.chunk_id, off, p.cold_bytes[b], false, true, trace);
        trace.addFixed(AttribComp::kDecompress, kColdLatency);
        ++st_cold_block_reads_;
        if (fault_.takePending() == FaultOutcome::kDetected) {
            store_.poisonLine(lineAddr(addr), p.chunk_id, off, p.cold_bytes[b],
                              trace);
            data.fill(0);
            return;
        }

        Line block[kLinesPerColdBlock];
        unsigned l = idx % kLinesPerColdBlock;
        loadColdBlock(p, b, off, block, l + 1);
        data = block[l];
        return;
    }

    if (p.code[idx] == 0) {
        data.fill(0);
        ++st_zero_fills_;
        return;
    }
    Slot slot{packBytes(p.code, 0, idx), bins_->binSize(p.code[idx])};
    // Offset adder, folded into the metadata component like
    // Compresso's offset circuit (DESIGN.md §15).
    trace.addFixed(AttribComp::kMdcacheHit, 1);
    store_.lineAccess(p.chunk_id, pn, slot.off, slot.bytes, false, trace,
                      st_split_fill_lines_);
    readSlot(addr, p.chunk_id, slot, kHotLatency, data, trace);
}

void
DmcController::writebackLine(Addr addr, const Line &data, McTrace &trace)
{
    CPR_PROF_SCOPE(ProfPhase::kMcWriteback);
    PageNum pn = pageOf(addr);
    LineIdx idx = lineOf(addr);
    MetadataFrontEnd::Op op(md_, trace, pn);
    ++st_writebacks_;

    Page &p = page(pn);
    p.touched_this_epoch = true;
    if (!md_.access(addr, true, trace))
        return; // the page is retired

    bool zero = isZeroLine(data);
    if (!p.valid)
        firstTouch(p);
    if (p.zero) {
        if (zero) {
            ++st_zero_wbs_;
            return;
        }
        p.zero = false;
        p.cold = false;
        p.code.fill(0);
    }

    if (p.cold) {
        // Writes promote: cold blocks are read-optimized.
        promoteToHot(pn, p, trace);
    }

    trace.addFixed(AttribComp::kCompress, kHotLatency);
    Encoded enc = encode(data);
    CPR_OBS_HIST(h_line_bytes_, zero ? 0 : enc.bytes.size());

    unsigned code = p.code[idx];
    if (enc.bin <= code) {
        if (zero && code == 0) {
            ++st_zero_wbs_;
        } else {
            Slot slot{packBytes(p.code, 0, idx), bins_->binSize(code)};
            store_.deviceOps(p.chunk_id, slot.off,
                             storeSlot(p.chunk_id, slot, data, &enc), true,
                             false, trace);
        }
    } else {
        // No inflation room in DMC: every overflow re-lays the page
        // out (the data-movement cost the paper points at).
        CPR_PROF_SCOPE(ProfPhase::kMcOverflow);
        ++st_line_overflows_;
        CPR_OBS_EVENT(obs_, ObsEvent::kLineOverflow, pn, idx);
        PageLines buf;
        gatherPage(p, buf, trace, AttribComp::kOverflowRelayout);
        buf[idx] = data;
        layoutHot(p, buf, trace, AttribComp::kOverflowRelayout);
        st_migration_ops_ += 2;
    }

    if (++epoch_wbs_ >= cfg_.epoch_writebacks) {
        epoch_wbs_ = 0;
        decayEpoch(trace);
    }
}

} // namespace compresso
