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

#include "compress/factory.h"
#include "compress/size_bins.h"
#include "core/compressed_controller.h"
#include "meta/metadata_cache.h"
#include "packing/lcp.h"

namespace compresso {

struct LcpConfig
{
    /** LCP+Align: alignment-friendly target sizes (Sec. VI-F). */
    bool alignment_friendly = false;
    MetadataCacheConfig mdcache{96 * 1024, 8, /*half_entry_opt=*/false};
    uint64_t installed_bytes = uint64_t(8) << 30;
};

/** Per-page LCP metadata (functional form). */
struct LcpPage : ChunkedPage
{
    uint16_t target = 0; ///< slot size in bytes
    std::bitset<kLinesPerPage> zero_line; ///< zero-line shortcut
    /** Exception slot per line; 0xff = stored in its slot. */
    std::array<uint8_t, kLinesPerPage> exc_slot;
    std::bitset<kLinesPerPage> exc_map; ///< occupied exception slots
    /** Actual compressed bytes per line (for overflow re-layout). */
    std::array<uint16_t, kLinesPerPage> actual_bytes{};

    LcpPage() { exc_slot.fill(0xff); }
};

class LcpController : public CompressedController<LcpPage>
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

    const SizeBins &targetBins() const { return *bins_; }

  private:
    using Page = LcpPage;

    uint32_t excCapacity(const Page &p) const;
    /** The sizing rule: the variable page size that holds a slot of
     *  the page's target size for every line plus @p exceptions 64 B
     *  exception slots. */
    uint32_t pageAlloc(const Page &p, unsigned exceptions) const;
    uint32_t slotOffset(const Page &p, LineIdx idx) const
    {
        return idx * uint32_t(p.target);
    }
    uint32_t excOffset(const Page &p, unsigned slot) const
    {
        return uint32_t(kLinesPerPage) * p.target +
               slot * uint32_t(kLineBytes);
    }

    /** Every line's slot: its target-size slot, its exception slot,
     *  or none for a zero line. */
    Slots slots(const Page &p) const;

    /** OS-visible page overflow: re-layout with a new target (page
     *  fault + full relocation). */
    void pageOverflow(PageNum pn, Page &p, LineIdx idx, const Line &raw,
                      McTrace &trace);

    void initialAllocate(Page &p, const Encoded &enc);

    // --- metadata ladder hooks (OS-aware: the OS rebuilds the entry
    // from its own tables, so there is no hardware re-walk) ---
    MetadataFrontEnd::PageState mdPageState(PageNum pn) const override;
    /** The OS re-lays the page out uncompressed (target 64 B). */
    void mdInflate(PageNum pn, McTrace &trace) override;

    LcpConfig cfg_;

    uint64_t &st_split_wb_lines_ = stats_.stat("split_wb_lines");
    uint64_t &st_co_fetched_lines_ = stats_.stat("co_fetched_lines");
    uint64_t &st_exception_accesses_ = stats_.stat("exception_accesses");
    uint64_t &st_exception_extra_ops_ = stats_.stat("exception_extra_ops");
    uint64_t &st_ir_placements_ = stats_.stat("ir_placements");
};

} // namespace compresso

#endif // COMPRESSO_CORE_LCP_CONTROLLER_H
