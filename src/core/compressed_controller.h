/**
 * @file
 * CompressedController: the page-table base under the three compressed
 * controllers (Secs. II-D, III).
 *
 * Compresso, LCP and RMC all keep an OSPA page as a list of 512 B
 * machine chunks reached through one 64 B metadata entry. The base owns
 * what that shape makes common: the page table, the `mc` stat group
 * with the counters every controller bumps, the ChunkStore and the
 * MetadataFrontEnd over it, the fault, pressure and observer wiring,
 * the footprint accounting, the balloon free and the generic chunk-map
 * audit.
 *
 * It also owns the slot format all three share, with the line codec
 * and size bins it needs: a 64 B slot holds the line raw, a smaller one
 * its codec stream, an empty one nothing (a zero line). encode(),
 * loadSlot() and storeSlot() are the only code that applies the
 * format, and readSlot() is every fill's ECC-checked slot read. On top
 * of them sit the page helpers: the bin-size sum packBytes(),
 * resizeFor() to the chunks covering a page size, the whole-page read
 * readPage(), a store of gathered lines into a new slot map, the
 * raw-page writer and the one overflow re-layout, relayout(). A
 * controller adds only where its slots lie, its one rule for a page's
 * size and, for a re-layout, its layout rule and raw-page record.
 *
 * @p PageT is the page-table record: a ChunkedPage for LCP and RMC,
 * Compresso's MetadataEntry (whose chunk list is `mpfn`) for
 * Compresso. chunkIds() reaches either list.
 */

#ifndef COMPRESSO_CORE_COMPRESSED_CONTROLLER_H
#define COMPRESSO_CORE_COMPRESSED_CONTROLLER_H

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "check/invariant_auditor.h"
#include "common/stats.h"
#include "common/types.h"
#include "compress/compressor.h"
#include "compress/size_bins.h"
#include "core/chunk_store.h"
#include "core/memory_controller.h"
#include "core/metadata_front_end.h"
#include "core/pressure_hooks.h"
#include "fault/fault_hooks.h"
#include "meta/metadata_cache.h"
#include "meta/metadata_entry.h"
#include "obs/observer.h"
#include "prof/profiler.h"

namespace compresso {

/** The page-table record of LCP and RMC: the page's mapping state
 *  and its chunk list (ChunkStore::resize's count and ids). */
struct ChunkedPage
{
    bool valid = false;
    bool zero = false;
    uint8_t chunks = 0; ///< 512 B units backing the page
    ChunkStore::ChunkIds chunk_id;

    ChunkedPage() { chunk_id.fill(kNoChunk); }
};

/** A page-table record's chunk list. */
inline ChunkStore::ChunkIds &chunkIds(ChunkedPage &p) { return p.chunk_id; }
inline const ChunkStore::ChunkIds &
chunkIds(const ChunkedPage &p)
{
    return p.chunk_id;
}
inline ChunkStore::ChunkIds &chunkIds(MetadataEntry &m) { return m.mpfn; }
inline const ChunkStore::ChunkIds &
chunkIds(const MetadataEntry &m)
{
    return m.mpfn;
}

template <class PageT>
class CompressedController : public MemoryController,
                             private MetadataFrontEnd::Hooks
{
  public:
    /** OSPA bytes of every validly mapped page. */
    uint64_t ospaBytes() const override { return validPages() * kPageBytes; }
    uint64_t mpaDataBytes() const override { return store_.usedBytes(); }
    /** One 64 B metadata entry per validly mapped page. */
    uint64_t mpaMetadataBytes() const override
    {
        return validPages() * kMetadataEntryBytes;
    }

    /** Balloon release: return the page's chunks, forget its layout and
     *  drop its metadata state. Untouched and freed pages are no-ops. */
    void
    freePage(PageNum pn) override
    {
        auto it = pages_.find(pn);
        if (it == pages_.end() || !it->second.valid)
            return;
        store_.resize(it->second.chunks, chunkIds(it->second), 0);
        it->second = PageT{};
        md_.release(pn);
        pageFreed(pn);
    }

    /** Fault wiring: exposed reads are ECC-adjudicated; a detected
     *  metadata fault walks the MetadataFrontEnd ladder, a data DUE
     *  poisons the line. */
    void attachFaultInjector(FaultInjector *fi) override { fault_.attach(fi); }

    /** Observability: events from the controller, its store and
     *  metadata cache, and the compressed-line-size histogram (null
     *  detaches). */
    void
    attachObserver(Observer *obs) override
    {
        obs_ = obs;
        md_.attachObserver(obs);
        store_.attachObserver(obs);
        h_line_bytes_ =
            obs != nullptr ? obs->histogram("mc.compressed_line_bytes")
                           : nullptr;
    }

    /** Pressure wiring (core/pressure_hooks.h): machine-OOM rescue,
     *  admission of the controller's relocation, repack and
     *  metadata-rebuild paths, and stall-cost reporting. */
    void
    attachPressureListener(PressureListener *pl) override
    {
        pressure_ = pl;
        md_.attachPressureListener(pl);
    }

    /** Machine bytes backing @p pn (0 if untouched or invalid); the
     *  governor's reclaim-ranking input. */
    uint64_t
    pageCompressedBytes(PageNum pn) const override
    {
        auto it = pages_.find(pn);
        if (it == pages_.end() || !it->second.valid)
            return 0;
        return allocBytes(it->second);
    }

    /** The page of an in-flight operation must not be reclaimed. */
    bool pageBusy(PageNum pn) const override { return md_.busy(pn); }

    /** Chunk-map invariant audit (src/check): every valid page's
     *  chunks live and exclusively owned, free list complementary. */
    AuditReport
    audit() const override
    {
        return InvariantAuditor::auditChunkMap(pages_, store_.allocator());
    }

    StatGroup &stats() override { return stats_; }
    const StatGroup &stats() const override { return stats_; }
    MetadataCache *metadataCache() override { return &md_.cache(); }

  protected:
    /** BPC (de)compression latency, each direction (Tab. III); the
     *  codec cost of Compresso, LCP and RMC. */
    static constexpr Cycle kBpcLatency = 12;

    /** Where a line is stored: page bytes [off, off + bytes). */
    struct Slot
    {
        uint32_t off = 0;
        uint16_t bytes = 0; ///< 64 raw, less a codec stream, 0 none
    };
    using Slots = std::array<Slot, kLinesPerPage>;
    using PageLines = std::array<Line, kLinesPerPage>;

    /** A line's codec stream and the smallest size bin that holds it
     *  (bin 0 only for a zero line). */
    struct Encoded
    {
        std::vector<uint8_t> bytes;
        unsigned bin = 0;
        bool zero = false;
    };

    /** A compressed layout a re-layout stores: every line's slot, the
     *  page bytes the slots span and the bytes of chunks they take. */
    struct Layout
    {
        Slots slots;
        uint32_t span = 0;
        uint32_t alloc = 0;
    };

    /** Whether a re-layout is an OS page fault, and when the OS takes
     *  it: LCP's overflow traps before the page moves, RMC's outgrown
     *  page faults once it has moved. */
    enum class OsFault { kNone, kBeforeMove, kAfterMove };

    /** What the raw-page writer does when the machine cannot grant
     *  the page's eight chunks. */
    enum class OnRefusal
    {
        kDrop,  ///< store nothing; the page keeps its layout
        kStore, ///< store anyway, which aborts on the missing chunk
    };

    /** @p stream_buffer as ChunkStore takes it: only the controllers
     *  that model the stream buffer set it. @p codec and @p bins are
     *  the slot format's. */
    CompressedController(uint64_t installed_bytes, bool stream_buffer,
                         const MetadataCacheConfig &cache,
                         const MetadataFrontEnd::Params &params,
                         std::unique_ptr<Compressor> codec,
                         const SizeBins &bins)
        : store_(installed_bytes, stats_, fault_, stream_buffer),
          md_(cache, params, *this, stats_, fault_),
          codec_(std::move(codec)),
          bins_(&bins)
    {
        assert(codec_ && "unknown compressor name");
    }

    // --- the slot format ---

    /** @p data's codec stream and size bin. */
    Encoded
    encode(const Line &data) const
    {
        Encoded enc;
        enc.zero = isZeroLine(data);
        BitWriter w;
        codec_->compress(data, w);
        enc.bytes = std::move(w).bytes();
        enc.bin = bins_->binFor(enc.bytes.size(), enc.zero);
        return enc;
    }

    /** Load the line held in @p slot. Returns true if that decoded a
     *  codec stream, which a fill pays decompression latency for. */
    bool
    loadSlot(const ChunkStore::ChunkIds &ids, Slot slot, Line &out) const
    {
        if (slot.bytes == 0) {
            out.fill(0);
            return false;
        }
        if (slot.bytes == kLineBytes) {
            store_.loadBytes(ids, slot.off, out.data(), kLineBytes);
            return false;
        }
        uint8_t buf[kLineBytes];
        store_.loadBytes(ids, slot.off, buf, slot.bytes);
        BitReader r(buf, size_t(slot.bytes) * 8);
        bool ok = codec_->decompress(r, out);
        assert(ok && "corrupt compressed slot");
        (void)ok;
        return true;
    }

    /** Store @p raw in @p slot, the codec stream being @p enc, or
     *  encoded here if null and the slot needs it. An incompressible
     *  line's stream can exceed 64 B, so a raw slot never holds one.
     *  Returns the bytes the slot write covers. */
    size_t
    storeSlot(const ChunkStore::ChunkIds &ids, Slot slot, const Line &raw,
              const Encoded *enc = nullptr)
    {
        if (slot.bytes == kLineBytes) {
            store_.storeBytes(ids, slot.off, raw.data(), kLineBytes);
            return kLineBytes;
        }
        BitWriter w;
        if (enc == nullptr)
            codec_->compress(raw, w);
        const std::vector<uint8_t> &bytes = enc ? enc->bytes : w.bytes();
        assert(bytes.size() <= slot.bytes);
        store_.storeBytes(ids, slot.off, bytes.data(), bytes.size());
        return std::max<size_t>(bytes.size(), 1);
    }

    /** A fill's read of @p slot, after its device access: a detected
     *  ECC fault poisons the slot and zeroes @p data (false);
     *  otherwise the line is loaded, a codec stream paying
     *  @p decompress_latency. */
    bool
    readSlot(Addr addr, const ChunkStore::ChunkIds &ids, Slot slot,
             Cycle decompress_latency, Line &data, McTrace &trace)
    {
        if (fault_.takePending() == FaultOutcome::kDetected) {
            store_.poisonLine(lineAddr(addr), ids, slot.off, slot.bytes,
                              trace);
            data.fill(0);
            return false;
        }
        if (loadSlot(ids, slot, data))
            trace.addFixed(AttribComp::kDecompress, decompress_latency);
        return true;
    }

    /** A writeback into the line's own slot: store it and emit the
     *  slot write, a split one counted in @p split_lines. */
    void
    writeSlot(PageNum pn, const ChunkStore::ChunkIds &ids, Slot slot,
              const Line &raw, const Encoded &enc, McTrace &trace,
              uint64_t &split_lines)
    {
        size_t len = storeSlot(ids, slot, raw, &enc);
        store_.lineAccess(ids, pn, slot.off, len, true, trace, split_lines);
    }

    // --- page helpers ---

    /** The bytes of the chunks backing @p p. */
    static uint32_t
    allocBytes(const PageT &p)
    {
        return uint32_t(p.chunks) * uint32_t(kChunkBytes);
    }

    /** The 64 B blocks that cover @p bytes. */
    static uint32_t
    lineBlocks(uint64_t bytes)
    {
        return uint32_t((bytes + kLineBytes - 1) / kLineBytes);
    }

    /** The bytes lines [first, end) pack into: the sum of their bin
     *  codes' slot sizes. */
    uint32_t
    packBytes(const std::array<uint8_t, kLinesPerPage> &codes,
              LineIdx first = 0, LineIdx end = kLinesPerPage) const
    {
        uint32_t sum = 0;
        for (LineIdx i = first; i < end; ++i)
            sum += bins_->binSize(codes[i]);
        return sum;
    }

    /** Grow or shrink @p p to the chunks that cover @p alloc_bytes,
     *  rescuing a machine OOM. Returns false if the chunks were
     *  refused. */
    bool
    resizeFor(PageT &p, uint32_t alloc_bytes)
    {
        return store_.resize(
            p.chunks, chunkIds(p),
            unsigned((alloc_bytes + kChunkBytes - 1) / kChunkBytes),
            md_.oomRescue());
    }

    /** Lay lines [first, end) out back to back from page byte @p base,
     *  each in a slot of its bin code's size. Returns the end offset. */
    uint32_t
    packSlots(const std::array<uint8_t, kLinesPerPage> &codes, Slots &slots,
              LineIdx first = 0, LineIdx end = kLinesPerPage,
              uint32_t base = 0) const
    {
        for (LineIdx i = first; i < end; ++i) {
            slots[i] = {base, bins_->binSize(codes[i])};
            base += slots[i].bytes;
        }
        return base;
    }

    /** Gather lines [first, end) of @p slots, every line by default. */
    void
    gather(const ChunkStore::ChunkIds &ids, const Slots &slots,
           PageLines &out, LineIdx first = 0,
           LineIdx end = kLinesPerPage) const
    {
        for (LineIdx i = first; i < end; ++i)
            loadSlot(ids, slots[i], out[i]);
    }

    /** The whole-page read: gather every line of @p slots into @p out
     *  and emit the read ops over the page's first @p bytes (none if
     *  it holds no chunks), attributed to @p comp. */
    void
    readPage(const PageT &p, const Slots &slots, uint32_t bytes,
             PageLines &out, McTrace &trace, AttribComp comp)
    {
        gather(chunkIds(p), slots, out);
        if (p.chunks > 0)
            store_.deviceOps(chunkIds(p), 0, bytes, false, false, trace,
                             comp);
    }

    /** Store lines [first, end) of @p lines into @p slots, skipping
     *  empty ones; the functional half of a re-layout. */
    void
    storeLines(const ChunkStore::ChunkIds &ids, const Slots &slots,
               const PageLines &lines, LineIdx first = 0,
               LineIdx end = kLinesPerPage)
    {
        for (LineIdx i = first; i < end; ++i)
            if (slots[i].bytes != 0)
                storeSlot(ids, slots[i], lines[i]);
    }

    /** The raw-page writer: grow or shrink @p p to eight chunks, store
     *  @p lines raw (line i at page bytes 64 * i) and emit the page's
     *  4 KB of write ops. Returns false if the chunks were refused;
     *  @p on_refusal says whether the lines are stored then. */
    bool
    storeRawPage(PageT &p, const PageLines &lines, McTrace &trace,
                 AttribComp comp, OnRefusal on_refusal)
    {
        ChunkStore::ChunkIds &ids = chunkIds(p);
        bool granted = resizeFor(p, uint32_t(kPageBytes));
        if (!granted && on_refusal == OnRefusal::kDrop)
            return false;
        for (LineIdx i = 0; i < kLinesPerPage; ++i)
            store_.storeBytes(ids, i * uint32_t(kLineBytes), lines[i].data(),
                              kLineBytes);
        store_.deviceOps(ids, 0, kPageBytes, true, false, trace, comp);
        return granted;
    }

    /** The safety rung's re-layout (mdInflate): read the page laid
     *  out in @p slots over its first @p bytes and store it raw. */
    void
    inflatePage(PageT &p, const Slots &slots, uint32_t bytes, McTrace &trace)
    {
        PageLines lines;
        readPage(p, slots, bytes, lines, trace, AttribComp::kFaultRecovery);
        storeRawPage(p, lines, trace, AttribComp::kFaultRecovery,
                     OnRefusal::kStore);
    }

    /** The one overflow re-layout: page @p pn, read from @p old over
     *  its first @p old_bytes, with line @p idx replaced by @p raw. A
     *  page holding chunks asks admission (a first layout moves
     *  nothing); a denied relocation is counted and lays the page out
     *  raw (which cannot overflow again), charged to the pressure
     *  component. @p lay_out(admitted) sets the page's record to the
     *  layout it returns, or to the raw page's if it returns none.
     *  Both extents count as move ops and as the relocation's cost. */
    template <class LayOut>
    void
    relayout(PageNum pn, PageT &p, const Slots &old, uint32_t old_bytes,
             LineIdx idx, const Line &raw, OsFault fault, McTrace &trace,
             LayOut &&lay_out)
    {
        CPR_PROF_SCOPE(ProfPhase::kMcOverflow);
        bool admitted = true;
        if (pressure_ != nullptr && p.chunks > 0) {
            uint64_t est =
                2ull * (old_bytes / kLineBytes + uint64_t(kLinesPerPage));
            if (!pressure_->admitOp(PressureOp::kRelocation, est)) {
                admitted = false;
                ++st_overflow_escalations_;
                CPR_OBS_EVENT(obs_, ObsEvent::kOpThrottled, pn,
                              uint32_t(PressureOp::kRelocation));
            }
        }
        if (fault == OsFault::kBeforeMove)
            osFault(pn, trace);
        AttribComp comp = admitted ? AttribComp::kOverflowRelayout
                                   : AttribComp::kPressureStall;

        // The line at idx comes from the write, not its slot: the
        // caller already updated its record, so its slot may hold a
        // stale (undecodable) image.
        Slots from = old;
        from[idx] = {};
        PageLines lines;
        readPage(p, from, old_bytes, lines, trace, comp);
        lines[idx] = raw;

        uint32_t new_bytes = uint32_t(kPageBytes);
        if (std::optional<Layout> to = lay_out(admitted)) {
            resizeFor(p, to->alloc);
            storeLines(chunkIds(p), to->slots, lines);
            store_.deviceOps(chunkIds(p), 0, to->span, true, false, trace,
                             comp);
            new_bytes = to->span;
        } else {
            storeRawPage(p, lines, trace, comp, OnRefusal::kStore);
        }
        if (fault == OsFault::kAfterMove)
            osFault(pn, trace);

        uint64_t moved = lineBlocks(old_bytes) + lineBlocks(new_bytes);
        st_overflow_move_ops_ += moved;
        if (pressure_ != nullptr)
            pressure_->onOpCost(PressureOp::kRelocation, moved);
    }

    /** The page's record, inserted on first reference. */
    PageT &page(PageNum pn) { return pages_[pn]; }

    /** A page's first write maps it, as a zero page. */
    void
    firstTouch(PageT &p)
    {
        p.valid = true;
        p.zero = true;
        ++st_pages_touched_;
    }

    /** After freePage released a page. */
    virtual void pageFreed(PageNum) {}

    std::unordered_map<PageNum, PageT> pages_;

    FaultHooks fault_;
    PressureListener *pressure_ = nullptr;

    StatGroup stats_{"mc"};
    // Cached hot-path counter handles (stable across reset()).
    uint64_t &st_fills_ = stats_.stat("fills");
    uint64_t &st_writebacks_ = stats_.stat("writebacks");
    uint64_t &st_zero_fills_ = stats_.stat("zero_fills");
    uint64_t &st_zero_wbs_ = stats_.stat("zero_wbs");
    uint64_t &st_split_fill_lines_ = stats_.stat("split_fill_lines");
    uint64_t &st_line_overflows_ = stats_.stat("line_overflows");
    uint64_t &st_pages_touched_ = stats_.stat("pages_touched");
    uint64_t &st_page_overflows_ = stats_.stat("page_overflows");
    uint64_t &st_overflow_move_ops_ = stats_.stat("overflow_move_ops");
    uint64_t &st_overflow_escalations_ =
        stats_.stat("overflow_escalations");

    /** Chunk lists and device ops; counts into stats_ (declared after
     *  it and fault_ for that reason). */
    ChunkStore store_;
    /** Metadata cache, entry traffic and fault ladder; likewise. */
    MetadataFrontEnd md_;

    /** The slot format's line codec and size bins. */
    std::unique_ptr<Compressor> codec_;
    const SizeBins *bins_;

    Observer *obs_ = nullptr;
    Histogram *h_line_bytes_ = nullptr; ///< owned by the Observer

  private:
    /** A page overflow the OS handles (MetadataFrontEnd::osFault). */
    void
    osFault(PageNum pn, McTrace &trace)
    {
        ++st_page_overflows_;
        CPR_OBS_EVENT(obs_, ObsEvent::kPageOverflow, pn, 0);
        CPR_OBS_EVENT(obs_, ObsEvent::kPageFault, pn,
                      uint32_t(MetadataFrontEnd::kOsFaultCycles));
        md_.osFault(trace);
    }

    /** Pages holding a valid mapping. */
    uint64_t
    validPages() const
    {
        uint64_t n = 0;
        for (const auto &[pn, p] : pages_)
            n += p.valid ? 1 : 0;
        return n;
    }
};

} // namespace compresso

#endif // COMPRESSO_CORE_COMPRESSED_CONTROLLER_H
