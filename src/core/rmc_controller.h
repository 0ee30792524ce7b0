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

#include "compress/factory.h"
#include "compress/size_bins.h"
#include "core/compressed_controller.h"
#include "meta/metadata_cache.h"

namespace compresso {

struct RmcConfig
{
    /** Hysteresis slack appended to each subpage. */
    uint32_t hysteresis_bytes = 64;
    MetadataCacheConfig bst{96 * 1024, 8, /*half_entry_opt=*/false};
    uint64_t installed_bytes = uint64_t(8) << 30;
};

/** Per-page RMC state: LinePack size codes and subpage extents. */
struct RmcPage : ChunkedPage
{
    static constexpr unsigned kSubpages = 4;

    std::array<uint8_t, kLinesPerPage> code{};   ///< bin per line
    std::array<uint32_t, kSubpages> sub_alloc{}; ///< bytes incl slack
};

class RmcController : public CompressedController<RmcPage>
{
  public:
    explicit RmcController(const RmcConfig &cfg);

    std::string name() const override { return "rmc"; }

    void fillLine(Addr addr, Line &data, McTrace &trace) override;
    void writebackLine(Addr addr, const Line &data,
                       McTrace &trace) override;

    static constexpr unsigned kSubpages = RmcPage::kSubpages;
    static constexpr unsigned kLinesPerSubpage =
        kLinesPerPage / kSubpages;

  private:
    using Page = RmcPage;

    uint32_t subpageOf(LineIdx idx) const
    {
        return idx / kLinesPerSubpage;
    }
    using SubAlloc = std::array<uint32_t, kSubpages>;
    /** The sizing rule: each subpage's lines packed by @p codes plus
     *  the hysteresis slack into @p sub_alloc; returns the variable
     *  page size that holds them all. */
    uint32_t pageAlloc(const std::array<uint8_t, kLinesPerPage> &codes,
                       SubAlloc &sub_alloc) const;
    /** Byte offset of subpage @p sp (sum of preceding sub_alloc);
     *  kSubpages gives the bytes the page's layout spans. */
    uint32_t subBase(const Page &p, unsigned sp) const;
    /** slots(p)[idx] alone. */
    Slot lineSlot(const Page &p, LineIdx idx) const;
    /** Every line's slot, packed by its code within its subpage. */
    Slots slots(const Page &p) const;
    /** The raw layout: 1 KB subpages of top-bin (64 B raw) slots. */
    void setRaw(Page &p) const;

    /** Re-lay the whole page out for new codes (relayout()): the first
     *  data in a zero page, a subpage that outgrew its slack, or with
     *  @p fault a page that outgrew its allocation. */
    void recode(PageNum pn, Page &p,
                const std::array<uint8_t, kLinesPerPage> &codes,
                LineIdx idx, const Line &raw, OsFault fault,
                McTrace &trace);

    // --- metadata ladder hooks (OS-aware: the OS rebuilds the BST
    // entry from its own tables, so there is no hardware re-walk) ---
    MetadataFrontEnd::PageState mdPageState(PageNum pn) const override;
    /** The OS re-lays the page out raw (relayout's full-page
     *  fallback), so slot lookups no longer depend on the codes. */
    void mdInflate(PageNum pn, McTrace &trace) override;

    RmcConfig cfg_;

    uint64_t &st_split_wb_lines_ = stats_.stat("split_wb_lines");
    uint64_t &st_subpage_shifts_ = stats_.stat("subpage_shifts");
    uint64_t &st_hysteresis_absorbs_ = stats_.stat("hysteresis_absorbs");
};

} // namespace compresso

#endif // COMPRESSO_CORE_RMC_CONTROLLER_H
