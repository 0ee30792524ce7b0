/**
 * @file
 * CompressedController: the page-table base under the four compressed
 * controllers (Secs. II-D, III).
 *
 * Compresso, LCP, RMC and DMC all keep an OSPA page as a list of 512 B
 * machine chunks reached through one 64 B metadata entry. The base owns
 * what that shape makes common: the page table, the `mc` stat group
 * with the counters every controller bumps, the ChunkStore and the
 * MetadataFrontEnd over it, the fault, pressure and observer wiring,
 * the footprint accounting, the balloon free and the generic chunk-map
 * audit. A controller adds only its layout on top.
 *
 * @p PageT is the page-table record: a ChunkedPage for LCP, RMC and
 * DMC, Compresso's MetadataEntry (whose chunk list is `mpfn`) for
 * Compresso. chunkIds() reaches either list.
 */

#ifndef COMPRESSO_CORE_COMPRESSED_CONTROLLER_H
#define COMPRESSO_CORE_COMPRESSED_CONTROLLER_H

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "check/invariant_auditor.h"
#include "common/stats.h"
#include "common/types.h"
#include "core/chunk_store.h"
#include "core/memory_controller.h"
#include "core/metadata_front_end.h"
#include "core/pressure_hooks.h"
#include "fault/fault_hooks.h"
#include "meta/metadata_cache.h"
#include "meta/metadata_entry.h"
#include "obs/observer.h"

namespace compresso {

/** The page-table record of LCP, RMC and DMC: the page's mapping state
 *  and its chunk list (ChunkStore::resize's count and ids). */
struct ChunkedPage
{
    bool valid = false;
    bool zero = false;
    uint8_t chunks = 0; ///< 512 B units backing the page
    ChunkStore::ChunkIds chunk_id;

    ChunkedPage() { chunk_id.fill(kNoChunk); }

    uint32_t allocBytes() const
    {
        return uint32_t(chunks) * uint32_t(kChunkBytes);
    }
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
        return uint64_t(it->second.chunks) * kChunkBytes;
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
    /** @p stream_buffer_blocks as ChunkStore takes it: only the
     *  controllers that model the stream buffer pass one. */
    CompressedController(uint64_t installed_bytes,
                         std::optional<unsigned> stream_buffer_blocks,
                         const MetadataCacheConfig &cache,
                         const MetadataFrontEnd::Params &params)
        : store_(installed_bytes, stats_, fault_, stream_buffer_blocks),
          md_(cache, params, *this, stats_, fault_)
    {
    }

    /** The page's record, inserted on first reference. */
    PageT &page(PageNum pn) { return pages_[pn]; }

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

    /** Chunk lists and device ops; counts into stats_ (declared after
     *  it and fault_ for that reason). */
    ChunkStore store_;
    /** Metadata cache, entry traffic and fault ladder; likewise. */
    MetadataFrontEnd md_;

    Observer *obs_ = nullptr;
    Histogram *h_line_bytes_ = nullptr; ///< owned by the Observer

  private:
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
