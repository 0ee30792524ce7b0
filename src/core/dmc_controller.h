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
#include <vector>

#include "compress/factory.h"
#include "compress/size_bins.h"
#include "core/compressed_controller.h"
#include "meta/metadata_cache.h"

namespace compresso {

struct DmcConfig
{
    /** Writebacks per decay epoch; untouched pages demote at epoch
     *  end. */
    uint64_t epoch_writebacks = 4096;
    MetadataCacheConfig mdcache{96 * 1024, 8, /*half_entry_opt=*/false};
    uint64_t installed_bytes = uint64_t(8) << 30;
};

/** Per-page DMC state: the hot per-line codes or the cold blocks. */
struct DmcPage : ChunkedPage
{
    /** 1 KB cold-compression granularity: 4 blocks per page. */
    static constexpr unsigned kColdBlocks = 4;

    bool cold = false;
    bool touched_this_epoch = true;
    std::array<uint8_t, kLinesPerPage> code{}; ///< hot: bin per line
    /** Cold representation: per-1KB-block compressed byte counts
     *  (the blocks are stored back to back). */
    std::array<uint32_t, kColdBlocks> cold_bytes{};
};

class DmcController : public CompressedController<DmcPage>
{
  public:
    explicit DmcController(const DmcConfig &cfg);

    std::string name() const override { return "dmc"; }

    void fillLine(Addr addr, Line &data, McTrace &trace) override;
    void writebackLine(Addr addr, const Line &data,
                       McTrace &trace) override;

    /** Pages with live references on the call stack (the op's page
     *  plus the epoch-decay migration target) must not be reclaimed. */
    bool pageBusy(PageNum pn) const override
    {
        return md_.busy(pn) || pn == migrating_page_;
    }

    static constexpr unsigned kColdBlocks = DmcPage::kColdBlocks;
    static constexpr unsigned kLinesPerColdBlock =
        kLinesPerPage / kColdBlocks;

    /** True if @p page is currently in the cold representation. */
    bool isCold(PageNum page) const;

  private:
    using Page = DmcPage;

    /** The sizing rule: the variable page size for @p bytes, the hot
     *  lines' packed bytes or the cold blocks', rounded up to 64 B.
     *  It caps at 4 KB, so cold blocks beyond that do not fit. */
    uint32_t pageAlloc(uint32_t bytes) const;

    /** Rewrite the page in hot representation with the given data. */
    void layoutHot(Page &p, const PageLines &buf, McTrace &trace,
                   AttribComp comp = AttribComp::kRepack);
    /** Decode the first @p n lines of cold block @p b, stored from
     *  page byte @p off, into @p out. */
    void loadColdBlock(const Page &p, unsigned b, uint32_t off, Line *out,
                       unsigned n) const;
    /** Read the page's current content (either representation),
     *  emitting its read ops into @p trace. */
    void gatherPage(const Page &p, PageLines &buf, McTrace &trace,
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
    std::unique_ptr<Compressor> cold_codec_; ///< the slot codec is hot
    uint64_t epoch_wbs_ = 0;

    uint64_t &st_migration_ops_ = stats_.stat("migration_ops");
    uint64_t &st_demotions_ = stats_.stat("demotions");
    uint64_t &st_promotions_ = stats_.stat("promotions");
    uint64_t &st_cold_block_reads_ = stats_.stat("cold_block_reads");
    uint64_t &st_demotions_throttled_ =
        stats_.stat("demotions_throttled");

    PageNum migrating_page_ = kNoPage; ///< epoch-decay demotion target
};

} // namespace compresso

#endif // COMPRESSO_CORE_DMC_CONTROLLER_H
