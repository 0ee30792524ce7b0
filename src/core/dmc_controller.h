/**
 * @file
 * DMC-style memory controller: Transparent Dual Memory Compression
 * (Kim, Lee, Kim & Huh, PACT 2017) — the other OS-transparent system
 * in the paper's related-work table (Tab. V).
 *
 * DMC keeps two compressed representations and migrates between them:
 *  - **hot** pages use a fast line-granularity scheme (LCP with BDI in
 *    the original; we use the same LinePack machinery as elsewhere so
 *    the comparison isolates DMC's *granularity* decisions);
 *  - **cold** pages are Lempel-Ziv-compressed at 1 KB granularity for
 *    a higher ratio — at the cost that touching any line of a cold
 *    1 KB block requires fetching and decompressing the whole block,
 *    and any write dirties it back to hot.
 *
 * The controller demotes pages that have not been touched for a full
 * decay epoch and promotes cold pages on first write (reads are served
 * from the cold image directly, paying the block cost). The paper's
 * critique — "opportunistically changing the granularity of
 * compression involves substantial additional data movement" — falls
 * out of exactly these migrations (stat: migration_ops).
 */

#ifndef COMPRESSO_CORE_DMC_CONTROLLER_H
#define COMPRESSO_CORE_DMC_CONTROLLER_H

#include <memory>
#include <unordered_map>
#include <vector>

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

struct DmcConfig
{
    std::string hot_compressor = "bdi"; ///< as in the original design
    std::string cold_compressor = "lz";
    /** Writebacks per decay epoch; untouched pages demote at epoch
     *  end. */
    uint64_t epoch_writebacks = 4096;
    MetadataCacheConfig mdcache{96 * 1024, 8, /*half_entry_opt=*/false};
    uint64_t installed_bytes = uint64_t(8) << 30;
    Cycle hot_latency = 6;    ///< BDI decompression
    Cycle cold_latency = 64;  ///< LZ over a 1 KB block
    Cycle mdcache_hit_latency = 2;
};

class DmcController : public MemoryController,
                      private MetadataFrontEnd::Hooks
{
  public:
    explicit DmcController(const DmcConfig &cfg);

    std::string name() const override { return "dmc"; }

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

    /** Fault wiring: OS-transparent degradation like Compresso — a
     *  detected metadata fault triggers a hardware re-walk (bounded,
     *  escalating to a raw hot re-layout); data DUEs poison the
     *  line. */
    void attachFaultInjector(FaultInjector *fi) override
    {
        fault_.attach(fi);
    }

    /** Observability: events (split access, line overflow, page
     *  overflow = migration, fault-recovery rungs) and the
     *  compressed-line-size histogram (null detaches). */
    void attachObserver(Observer *obs) override;

    /** Pressure wiring (core/pressure_hooks.h): machine-OOM rescue,
     *  admission throttling of epoch cold-demotions (maintenance),
     *  and stall-cost reporting on hot/cold migrations. */
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

    /** Pages with live references on the call stack (the op's page
     *  plus the epoch-decay migration target) must not be reclaimed. */
    bool pageBusy(PageNum pn) const override
    {
        return md_.busy(pn) || pn == migrating_page_;
    }

    /** Chunk-map invariant audit (src/check): every valid page's
     *  chunks live and exclusively owned, free list complementary. */
    AuditReport audit() const override;

    StatGroup &stats() override { return stats_; }
    const StatGroup &stats() const override { return stats_; }
    MetadataCache *metadataCache() override { return &md_.cache(); }

    /** 1 KB cold-compression granularity: 4 blocks per page. */
    static constexpr unsigned kColdBlocks = 4;
    static constexpr unsigned kLinesPerColdBlock =
        kLinesPerPage / kColdBlocks;

    /** True if @p page is currently in the cold representation. */
    bool isCold(PageNum page);

  private:
    struct Page
    {
        bool valid = false;
        bool zero = false;
        bool cold = false;
        bool touched_this_epoch = true;
        std::array<uint8_t, kLinesPerPage> code{}; ///< hot: bin per line
        /** Cold representation: per-1KB-block compressed byte counts
         *  (the blocks are stored back to back). */
        std::array<uint32_t, kColdBlocks> cold_bytes{};
        uint8_t chunks = 0;
        std::array<uint32_t, kChunksPerPage> chunk_id;

        Page() { chunk_id.fill(kNoChunk); }
    };

    Page &page(PageNum pn) { return pages_[pn]; }

    uint32_t hotOffset(const Page &p, LineIdx idx) const;
    uint32_t hotPack(const Page &p) const;
    uint32_t allocBytes(const Page &p) const
    {
        return uint32_t(p.chunks) * uint32_t(kChunkBytes);
    }

    void readHotLine(const Page &p, LineIdx idx, Line &out) const;
    /** Rewrite the page in hot representation with the given data. */
    void layoutHot(Page &p, const std::array<Line, kLinesPerPage> &buf,
                   McTrace &trace,
                   AttribComp comp = AttribComp::kRepack);
    /** Gather the page's current content (either representation). */
    void gather(const Page &p, std::array<Line, kLinesPerPage> &buf,
                McTrace *trace,
                AttribComp comp = AttribComp::kRepack);

    void demoteToCold(PageNum pn, Page &p, McTrace &trace);
    void promoteToHot(PageNum pn, Page &p, McTrace &trace);
    void decayEpoch(McTrace &trace);

    // --- metadata ladder hooks (OS-transparent, like Compresso: the
    // controller re-walks the page's stored image in hardware) ---
    MetadataFrontEnd::PageState mdPageState(PageNum pn) const override;
    uint64_t mdRewalkEstimate(PageNum pn) const override;
    void mdRewalk(PageNum pn, McTrace &trace) override;
    /** Re-lay the page out raw and hot, so slot lookups no longer
     *  depend on the per-line codes or cold block sizes. */
    void mdInflate(PageNum pn, McTrace &trace) override;

    DmcConfig cfg_;
    std::unique_ptr<Compressor> hot_codec_;
    std::unique_ptr<Compressor> cold_codec_;
    std::unordered_map<PageNum, Page> pages_;
    uint64_t epoch_wbs_ = 0;

    FaultHooks fault_;

    StatGroup stats_{"mc"};
    // Cached hot-path counter handles (stable across reset()).
    uint64_t &st_fills_ = stats_.stat("fills");
    uint64_t &st_writebacks_ = stats_.stat("writebacks");
    uint64_t &st_zero_fills_ = stats_.stat("zero_fills");
    uint64_t &st_zero_wbs_ = stats_.stat("zero_wbs");
    uint64_t &st_split_fill_lines_ = stats_.stat("split_fill_lines");
    uint64_t &st_migration_ops_ = stats_.stat("migration_ops");
    uint64_t &st_demotions_ = stats_.stat("demotions");
    uint64_t &st_promotions_ = stats_.stat("promotions");
    uint64_t &st_cold_block_reads_ = stats_.stat("cold_block_reads");
    uint64_t &st_pages_touched_ = stats_.stat("pages_touched");
    uint64_t &st_line_overflows_ = stats_.stat("line_overflows");
    uint64_t &st_demotions_throttled_ =
        stats_.stat("demotions_throttled");

    /** Chunk lists and device ops; counts into stats_ (declared after
     *  it and fault_ for that reason). */
    ChunkStore store_{cfg_.installed_bytes, stats_, fault_};
    /** Metadata cache, entry traffic and fault ladder; likewise. */
    MetadataFrontEnd md_{cfg_.mdcache,
                         {.region_base = Addr(1) << 43,
                          .hit_latency = cfg_.mdcache_hit_latency},
                         *this, stats_, fault_};

    PressureListener *pressure_ = nullptr;
    PageNum migrating_page_ = kNoPage; ///< epoch-decay demotion target

    Observer *obs_ = nullptr;
    Histogram *h_line_bytes_ = nullptr; ///< owned by the Observer
};

} // namespace compresso

#endif // COMPRESSO_CORE_DMC_CONTROLLER_H
