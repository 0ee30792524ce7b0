/**
 * @file
 * OS-aware LCP-based memory controller: the competitive baseline of
 * Sec. VI-F.
 *
 * Linearly Compressed Pages (Pekhimenko et al., MICRO 2013) with the
 * paper's "enhanced" configuration: the optimized BPC compressor, four
 * compressed page sizes (512 B / 1 KB / 2 KB / 4 KB), an exception
 * region per page, the same-size metadata cache as Compresso, and the
 * bandwidth benefits of zero-line handling and free prefetch.
 *
 * Two properties distinguish it from Compresso:
 *  - OS-aware: a page overflow raises a page fault; the OS reallocates
 *    the page (full relocation plus a fixed fault penalty).
 *  - Speculation: because the TLB carries the per-page target size,
 *    the slot access can issue in parallel with the metadata access;
 *    exceptions pay an extra serialized access.
 *
 * The LCP+Align variant (Sec. VI-F) swaps the target-size candidates
 * from the legacy 22/44 B set to Compresso's alignment-friendly
 * 8/32/64 B set.
 */

#ifndef COMPRESSO_CORE_LCP_CONTROLLER_H
#define COMPRESSO_CORE_LCP_CONTROLLER_H

#include <bitset>
#include <memory>
#include <unordered_map>

#include "compress/factory.h"
#include "compress/size_bins.h"
#include "core/chunk_store.h"
#include "core/memory_controller.h"
#include "core/metadata_front_end.h"
#include "core/pressure_hooks.h"
#include "fault/fault_hooks.h"
#include "meta/metadata_cache.h"
#include "obs/observer.h"
#include "packing/lcp.h"

namespace compresso {

struct LcpConfig
{
    std::string compressor = "bpc";
    /** LCP+Align: alignment-friendly target sizes (Sec. VI-F). */
    bool alignment_friendly = false;
    MetadataCacheConfig mdcache{96 * 1024, 8, /*half_entry_opt=*/false};
    bool speculative_access = true;
    /** Device-side stream buffer (ablation only; free prefetch is
     *  modeled via McTrace::co_fetched + LLC insertion). */
    bool stream_buffer = true;
    unsigned stream_buffer_blocks = 4;
    uint64_t installed_bytes = uint64_t(8) << 30;
    Cycle compression_latency = 12;
    Cycle mdcache_hit_latency = 2;
    /** OS page-fault handling cost for a page overflow (~3 us). */
    Cycle page_fault_cycles = 9000;
};

class LcpController : public MemoryController,
                      private MetadataFrontEnd::Hooks
{
  public:
    explicit LcpController(const LcpConfig &cfg);

    std::string name() const override
    {
        return cfg_.alignment_friendly ? "lcp+align" : "lcp";
    }

    void fillLine(Addr addr, Line &data, McTrace &trace) override;
    void writebackLine(Addr addr, const Line &data,
                       McTrace &trace) override;

    uint64_t ospaBytes() const override
    {
        return validPages(pages_) * kPageBytes;
    }
    uint64_t mpaDataBytes() const override { return store_.usedBytes(); }
    uint64_t mpaMetadataBytes() const override
    {
        return validPages(pages_) * kMetadataEntryBytes;
    }

    void freePage(PageNum page) override;

    /** Fault wiring: OS-aware degradation — a detected metadata fault
     *  raises a page fault and the OS rebuilds the entry (bounded,
     *  escalating to an uncompressed re-layout); data DUEs poison the
     *  line. */
    void attachFaultInjector(FaultInjector *fi) override
    {
        fault_.attach(fi);
    }

    /** Observability: events (split access, line/page overflow, page
     *  fault, fault-recovery rungs) and the compressed-line-size
     *  histogram (null detaches). */
    void attachObserver(Observer *obs) override;

    /** Pressure wiring (core/pressure_hooks.h): machine-OOM rescue,
     *  and watchdogged admission of the overflow re-layout and
     *  metadata-rebuild paths (denial escalates to the uncompressed
     *  64 B layout, the OS-aware safe state). */
    void attachPressureListener(PressureListener *pl) override
    {
        pressure_ = pl;
        md_.attachPressureListener(pl);
    }

    /** Machine bytes backing @p pn (0 for untouched/zero pages);
     *  governor reclaim-ranking input. */
    uint64_t pageCompressedBytes(PageNum pn) const override
    {
        return pageChunkBytes(pages_, pn);
    }

    /** The page of the in-flight operation must not be reclaimed. */
    bool pageBusy(PageNum pn) const override { return md_.busy(pn); }

    /** Chunk-map invariant audit (src/check): every valid page's
     *  chunks live and exclusively owned, free list complementary. */
    AuditReport audit() const override;

    StatGroup &stats() override { return stats_; }
    const StatGroup &stats() const override { return stats_; }

    const SizeBins &targetBins() const { return *bins_; }
    MetadataCache *metadataCache() override { return &md_.cache(); }

  private:
    /** Per-page LCP metadata (functional form). */
    struct Page
    {
        bool valid = false;
        bool zero = false;
        uint16_t target = 0;  ///< slot size in bytes
        uint8_t chunks = 0;   ///< 512 B units backing the page
        std::array<uint32_t, kChunksPerPage> chunk_id;
        std::bitset<kLinesPerPage> zero_line; ///< zero-line shortcut
        /** Exception slot per line; 0xff = stored in its slot. */
        std::array<uint8_t, kLinesPerPage> exc_slot;
        std::bitset<kLinesPerPage> exc_map; ///< occupied exception slots
        /** Actual compressed bytes per line (for overflow re-layout). */
        std::array<uint16_t, kLinesPerPage> actual_bytes{};

        Page()
        {
            chunk_id.fill(kNoChunk);
            exc_slot.fill(0xff);
        }
    };

    Page &page(PageNum pn) { return pages_[pn]; }

    uint32_t allocBytes(const Page &p) const
    {
        return uint32_t(p.chunks) * uint32_t(kChunkBytes);
    }
    uint32_t excCapacity(const Page &p) const;
    uint32_t slotOffset(const Page &p, LineIdx idx) const
    {
        return idx * uint32_t(p.target);
    }
    uint32_t excOffset(const Page &p, unsigned slot) const
    {
        return uint32_t(kLinesPerPage) * p.target +
               slot * uint32_t(kLineBytes);
    }

    struct Encoded
    {
        std::vector<uint8_t> bytes;
        bool zero = false;
    };
    Encoded encodeLine(const Line &data) const;
    void readStored(const Page &p, LineIdx idx, Line &out) const;
    void writeStored(PageNum pn, Page &p, LineIdx idx, const Line &raw,
                     const Encoded &enc, McTrace &trace);

    /** OS-visible page overflow: re-layout with a new target (page
     *  fault + full relocation). */
    void pageOverflow(PageNum pn, Page &p, LineIdx idx, const Line &raw,
                      const Encoded &enc, McTrace &trace);

    void initialAllocate(Page &p, const Encoded &enc);

    // --- metadata ladder hooks (OS-aware: the OS rebuilds the entry
    // from its own tables, so there is no hardware re-walk) ---
    MetadataFrontEnd::PageState mdPageState(PageNum pn) const override;
    /** The OS re-lays the page out uncompressed (target 64 B). */
    void mdInflate(PageNum pn, McTrace &trace) override;

    LcpConfig cfg_;
    const SizeBins *bins_;
    std::unique_ptr<Compressor> codec_;
    std::unordered_map<PageNum, Page> pages_;

    FaultHooks fault_;
    PressureListener *pressure_ = nullptr;

    StatGroup stats_{"mc"};
    // Cached hot-path counter handles (stable across reset()).
    uint64_t &st_fills_ = stats_.stat("fills");
    uint64_t &st_writebacks_ = stats_.stat("writebacks");
    uint64_t &st_zero_fills_ = stats_.stat("zero_fills");
    uint64_t &st_zero_wbs_ = stats_.stat("zero_wbs");
    uint64_t &st_split_fill_lines_ = stats_.stat("split_fill_lines");
    uint64_t &st_split_wb_lines_ = stats_.stat("split_wb_lines");
    uint64_t &st_co_fetched_lines_ = stats_.stat("co_fetched_lines");
    uint64_t &st_page_overflows_ = stats_.stat("page_overflows");
    uint64_t &st_page_faults_ = stats_.stat("page_faults");
    uint64_t &st_page_fault_cycles_ = stats_.stat("page_fault_cycles");
    uint64_t &st_overflow_move_ops_ = stats_.stat("overflow_move_ops");
    uint64_t &st_exception_accesses_ = stats_.stat("exception_accesses");
    uint64_t &st_exception_extra_ops_ = stats_.stat("exception_extra_ops");
    uint64_t &st_pages_touched_ = stats_.stat("pages_touched");
    uint64_t &st_line_overflows_ = stats_.stat("line_overflows");
    uint64_t &st_ir_placements_ = stats_.stat("ir_placements");
    uint64_t &st_overflow_escalations_ =
        stats_.stat("overflow_escalations");

    /** Chunk lists, device ops and the stream buffer; counts into
     *  stats_ (declared after it and fault_ for that reason). */
    ChunkStore store_{cfg_.installed_bytes, stats_, fault_,
                      cfg_.stream_buffer ? cfg_.stream_buffer_blocks : 0};
    /** Metadata cache, entry traffic and fault ladder; likewise. */
    MetadataFrontEnd md_{cfg_.mdcache,
                         {.region_base = Addr(1) << 41,
                          .hit_latency = cfg_.mdcache_hit_latency,
                          .os_fault_cycles = cfg_.page_fault_cycles},
                         *this, stats_, fault_};

    Observer *obs_ = nullptr;
    Histogram *h_line_bytes_ = nullptr; ///< owned by the Observer
};

} // namespace compresso

#endif // COMPRESSO_CORE_LCP_CONTROLLER_H
