/**
 * @file
 * RMC-style memory controller: Robust Main-Memory Compression (Ekman
 * & Stenström, ISCA 2005), the second OS-aware baseline in the
 * paper's related-work table (Tab. V: LinePack-style packing, "light"
 * data-movement optimizations).
 *
 * Design, as published and summarized by the paper:
 *  - OS-aware: translation metadata lives with the page table (a
 *    Block Size Table cached on chip); page overflows fault to the OS.
 *  - A page is divided into four subpages, each packed LinePack-style
 *    (per-line size codes, offset by prefix sum within the subpage).
 *  - Each subpage ends in a small hysteresis area that absorbs line
 *    growth without touching the neighboring subpages; only when a
 *    subpage outgrows slack do the following subpages shift ("light"
 *    movement), and only when the page outgrows its allocation does
 *    the OS get involved.
 *  - No repacking, no overflow prediction, no inflation room.
 */

#ifndef COMPRESSO_CORE_RMC_CONTROLLER_H
#define COMPRESSO_CORE_RMC_CONTROLLER_H

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

namespace compresso {

struct RmcConfig
{
    std::string compressor = "bpc";
    /** Original RMC used ratio-optimal sizes (our legacy bins). */
    bool alignment_friendly = false;
    /** Hysteresis slack appended to each subpage. */
    uint32_t hysteresis_bytes = 64;
    MetadataCacheConfig bst{96 * 1024, 8, /*half_entry_opt=*/false};
    uint64_t installed_bytes = uint64_t(8) << 30;
    Cycle compression_latency = 12;
    Cycle bst_hit_latency = 2;
    /** OS page-fault cost for a page overflow. */
    Cycle page_fault_cycles = 9000;
};

class RmcController : public MemoryController,
                      private MetadataFrontEnd::Hooks
{
  public:
    explicit RmcController(const RmcConfig &cfg);

    std::string name() const override { return "rmc"; }

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

    /** Fault wiring: OS-aware degradation like LCP — a detected BST
     *  fault raises a page fault and the OS rebuilds the entry
     *  (bounded, escalating to a raw re-layout); data DUEs poison the
     *  line. */
    void attachFaultInjector(FaultInjector *fi) override
    {
        fault_.attach(fi);
    }

    /** Observability: events (split access, line/page overflow, page
     *  fault, fault-recovery rungs) and the compressed-line-size
     *  histogram (null detaches). */
    void attachObserver(Observer *obs) override;

    /** Pressure wiring (core/pressure_hooks.h): machine-OOM rescue
     *  via emergency ballooning, re-layout admission (denial forces
     *  the raw layout — terminal, no further overflows), and
     *  stall-cost reporting. */
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
    MetadataCache *metadataCache() override { return &md_.cache(); }

    static constexpr unsigned kSubpages = 4;
    static constexpr unsigned kLinesPerSubpage =
        kLinesPerPage / kSubpages;

  private:
    struct Page
    {
        bool valid = false;
        bool zero = false;
        std::array<uint8_t, kLinesPerPage> code{};    ///< bin per line
        std::array<uint32_t, kSubpages> sub_alloc{};  ///< bytes incl slack
        uint8_t chunks = 0;
        std::array<uint32_t, kChunksPerPage> chunk_id;

        Page() { chunk_id.fill(kNoChunk); }
    };

    Page &page(PageNum pn) { return pages_[pn]; }

    uint32_t subpageOf(LineIdx idx) const
    {
        return idx / kLinesPerSubpage;
    }
    /** Packed bytes of subpage @p sp (sum of its line bins). */
    uint32_t subPack(const Page &p, unsigned sp) const;
    /** Byte offset of subpage @p sp (sum of preceding sub_alloc);
     *  kSubpages gives the bytes the page's layout spans. */
    uint32_t subBase(const Page &p, unsigned sp) const;
    /** Byte offset of line @p idx. */
    uint32_t lineOffset(const Page &p, LineIdx idx) const;
    uint32_t allocBytes(const Page &p) const
    {
        return uint32_t(p.chunks) * uint32_t(kChunkBytes);
    }

    void readStored(const Page &p, LineIdx idx, Line &out) const;
    /** Re-lay out the whole page for new codes (subpage shift or OS
     *  page overflow), preserving data. */
    void relayout(PageNum pn, Page &p,
                  const std::array<uint8_t, kLinesPerPage> &codes,
                  LineIdx idx, const Line &raw, bool os_fault,
                  McTrace &trace);

    // --- metadata ladder hooks (OS-aware: the OS rebuilds the BST
    // entry from its own tables, so there is no hardware re-walk) ---
    MetadataFrontEnd::PageState mdPageState(PageNum pn) const override;
    /** The OS re-lays the page out raw (relayout's full-page
     *  fallback), so slot lookups no longer depend on the codes. */
    void mdInflate(PageNum pn, McTrace &trace) override;

    RmcConfig cfg_;
    const SizeBins *bins_;
    std::unique_ptr<Compressor> codec_;
    std::unordered_map<PageNum, Page> pages_;

    FaultHooks fault_;

    StatGroup stats_{"mc"};
    // Cached hot-path counter handles (stable across reset()).
    uint64_t &st_fills_ = stats_.stat("fills");
    uint64_t &st_writebacks_ = stats_.stat("writebacks");
    uint64_t &st_zero_fills_ = stats_.stat("zero_fills");
    uint64_t &st_zero_wbs_ = stats_.stat("zero_wbs");
    uint64_t &st_split_fill_lines_ = stats_.stat("split_fill_lines");
    uint64_t &st_split_wb_lines_ = stats_.stat("split_wb_lines");
    uint64_t &st_overflow_move_ops_ = stats_.stat("overflow_move_ops");
    uint64_t &st_page_overflows_ = stats_.stat("page_overflows");
    uint64_t &st_page_faults_ = stats_.stat("page_faults");
    uint64_t &st_page_fault_cycles_ = stats_.stat("page_fault_cycles");
    uint64_t &st_subpage_shifts_ = stats_.stat("subpage_shifts");
    uint64_t &st_pages_touched_ = stats_.stat("pages_touched");
    uint64_t &st_line_overflows_ = stats_.stat("line_overflows");
    uint64_t &st_hysteresis_absorbs_ = stats_.stat("hysteresis_absorbs");
    uint64_t &st_overflow_escalations_ =
        stats_.stat("overflow_escalations");

    /** Chunk lists and device ops; counts into stats_ (declared after
     *  it and fault_ for that reason). */
    ChunkStore store_{cfg_.installed_bytes, stats_, fault_};
    /** BST cache, entry traffic and fault ladder; likewise. */
    MetadataFrontEnd md_{cfg_.bst,
                         {.region_base = Addr(1) << 42,
                          .hit_latency = cfg_.bst_hit_latency,
                          .hit_comp = AttribComp::kBstWalk,
                          .miss_comp = AttribComp::kBstWalk,
                          .os_fault_cycles = cfg_.page_fault_cycles},
                         *this, stats_, fault_};

    PressureListener *pressure_ = nullptr;

    Observer *obs_ = nullptr;
    Histogram *h_line_bytes_ = nullptr; ///< owned by the Observer
};

} // namespace compresso

#endif // COMPRESSO_CORE_RMC_CONTROLLER_H
