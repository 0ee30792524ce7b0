/**
 * @file
 * The Compresso memory controller (Secs. III-V): an OS-transparent
 * compressed main memory living entirely in the memory controller.
 *
 * Functional model: lines written back from the LLC are compressed
 * (BPC by default), quantized to size bins, and packed with LinePack
 * into 512 B machine chunks; fills decompress the stored bytes. The
 * per-page metadata entry, metadata cache, inflation room, overflow
 * predictor, dynamic inflation-room expansion and
 * repack-on-metadata-eviction are all implemented as described in the
 * paper, each behind an independent config flag so the Fig. 4/6/7
 * experiments toggle the real mechanisms.
 *
 * Timing model: every operation reports the 64 B device accesses it
 * caused (demand-critical vs background) plus fixed latencies
 * (metadata cache hit 2 cycles, offset adder 1 cycle, (de)compression
 * 12 cycles — Tab. III).
 */

#ifndef COMPRESSO_CORE_COMPRESSO_CONTROLLER_H
#define COMPRESSO_CORE_COMPRESSO_CONTROLLER_H

#include <memory>
#include <unordered_map>

#include "compress/factory.h"
#include "compress/size_bins.h"
#include "core/compressed_controller.h"
#include "core/offset_circuit.h"
#include "core/predictor.h"
#include "meta/metadata_cache.h"
#include "meta/metadata_entry.h"
#include "packing/linepack.h"

namespace compresso {

struct CompressoConfig
{
    std::string compressor = "bpc";

    /** Line size bins: alignment-friendly 0/8/32/64 (Sec. IV-B1), or
     *  e.g. the legacy 0/22/44/64. */
    const SizeBins *line_bins = &compressoBins();

    /** Incremental 512 B chunks (Compresso) vs 4 variable sizes. */
    PageSizing page_sizing = PageSizing::kChunked512;

    // Optimization toggles (Sec. IV-B).
    bool inflation_room = true;        ///< base inflation room (Sec. III)
    bool overflow_prediction = true;   ///< Sec. IV-B2
    bool dynamic_ir_expansion = true;  ///< Sec. IV-B3
    bool repack_on_evict = true;       ///< Sec. IV-B4
    MetadataCacheConfig mdcache;       ///< half_entry_opt = Sec. IV-B5

    uint64_t installed_bytes = uint64_t(8) << 30; ///< data-chunk arena
};

class CompressoController : public CompressedController<MetadataEntry>
{
  public:
    explicit CompressoController(const CompressoConfig &cfg);

    std::string name() const override { return "compresso"; }

    void fillLine(Addr addr, Line &data, McTrace &trace) override;
    void writebackLine(Addr addr, const Line &data,
                       McTrace &trace) override;

    /** Wire the observability layer through the controller and its
     *  metadata cache; caches histogram handles so the hot paths
     *  never do name lookups. */
    void attachObserver(Observer *obs) override;

    PageOverflowPredictor &predictor() { return predictor_; }
    const SizeBins &lineBins() const { return *bins_; }
    const CompressoConfig &config() const { return cfg_; }

    /** Metadata entry for a page (creating an invalid one if absent);
     *  exposed for tests and diagnostics. */
    const MetadataEntry &pageMeta(PageNum page);

    /** Force a repack pass over every touched page (diagnostic /
     *  best-case accounting; not part of the architecture). */
    void repackAll();

    /** MemoryController::flush: settle pending repacking so capacity
     *  accounting reflects current data. */
    void flush() override { repackAll(); }

    /**
     * Full cross-structure invariant audit (Secs. III-IV): chunk
     * allocator free list vs chunks reachable from valid metadata
     * MPFNs (no leaks, double-mapping, or use-after-release),
     * per-page chunks/free_space/inflate_count recomputed from the
     * line size codes, size-bin code validity for the configured bin
     * set, and zero pages owning no storage.
     */
    AuditReport audit() const override;

    /** Mutable metadata access for fault-injection tests ONLY: lets
     *  the auditor tests plant corruptions (leaked chunks, stale
     *  free_space, invalid codes) and prove audit() reports them.
     *  Never use from simulation code. */
    MetadataEntry &pageMetaForTest(PageNum page) { return pages_[page]; }

    /** Chunk-allocator access for the same fault-injection tests. */
    ChunkAllocator &chunkAllocatorForTest() { return store_.allocator(); }

  private:
    struct PageShadow
    {
        /** Most recent *actual* compressed bin per line, which may be
         *  smaller than the slot recorded in line_code (underflows are
         *  only harvested at repack time). */
        std::array<uint8_t, kLinesPerPage> actual_bin{};
        bool predictor_inflated = false;
    };

    /** COMPRESSO_CHECKED_BUILD: fatal page-local invariant check,
     *  run at state-mutation boundaries (writeback/overflow paths,
     *  repack, page free). Aborts with the violation report — unless
     *  COMPRESSO_FAULT_RECOVERY is compiled in and a fault injector
     *  with recovery enabled is attached, in which case the page is
     *  degraded to a safe state instead (recoverCorruptPage). */
    void checkedAudit(PageNum page, const char *site);

    /** Page-local invariant audit, shared by checkedAudit and the
     *  recovery path. */
    AuditReport auditPage(PageNum page) const;

    // --- metadata ladder hooks (OS-transparent: the entry is rebuilt
    // by re-walking the page's stored bytes in hardware) ---
    MetadataFrontEnd::PageState mdPageState(PageNum page) const override;
    uint64_t mdRewalkEstimate(PageNum page) const override;
    void mdRewalk(PageNum page, McTrace &trace) override;
    /** Inflate to uncompressed 4 KB, the paper's safe state. */
    void mdInflate(PageNum page, McTrace &trace) override;
    /** Repack-on-evict (Sec. IV-B4). */
    void mdEvicted(PageNum page, McTrace &trace) override;
    /** freePage's own step: drop the shadow, audit the page. */
    void pageFreed(PageNum page) override;
    /** Best-effort local repair of an audit-caught corrupt page:
     *  recompute derived fields, else retire the page to a poisoned
     *  zero state. Returns false if the damage is cross-structure
     *  (leaked/double-mapped chunks) and only an abort is safe. */
    bool recoverCorruptPage(PageNum page);

    PageShadow &shadow(PageNum page);

    // --- layout helpers ---
    /** Where the inflation room starts: past the packed slots. */
    uint32_t irBase(const MetadataEntry &m) const;
    /** The sizing rule: the allocation that holds lines packed by
     *  @p codes, in the configured page sizing. */
    uint32_t pageAlloc(const std::array<uint8_t, kLinesPerPage> &codes) const;
    /** Bytes the page's layout spans: the slots and the used
     *  inflation room, or the whole page when it is raw. */
    uint32_t usedBytes(const MetadataEntry &m) const
    {
        return m.compressed ? irBase(m) + uint32_t(m.inflate_count) *
                                              uint32_t(kLineBytes)
                            : uint32_t(kPageBytes);
    }
    /** IR slot index of line @p idx, or -1 if not inflated. */
    int inflateSlot(const MetadataEntry &m, LineIdx idx) const;
    /** Every line's slot: packed by its code, or in the inflation room
     *  if inflated. A raw page's codes are all top-bin, so line i
     *  packs at 64 * i. */
    Slots slots(const MetadataEntry &m) const;
    /** slots(m)[idx] alone, through the offset circuit. */
    Slot lineSlot(const MetadataEntry &m, LineIdx idx) const;

    // --- page lifecycle ---
    /** CompressedController::firstTouch, with an empty layout. */
    void firstTouch(MetadataEntry &m);
    /** Store a line that outgrew its slot. False if machine OOM
     *  dropped the write, leaving the old line stored. */
    bool handleLineOverflow(PageNum page, MetadataEntry &m, LineIdx idx,
                            const Line &raw, const Encoded &enc,
                            McTrace &trace);
    /** Store @p raw in the next inflation-room slot (Sec. III). */
    void placeInIr(MetadataEntry &m, LineIdx idx, const Line &raw,
                   McTrace &trace);
    /** Inflate the page to raw 4 KB, then store @p raw in line @p idx's
     *  raw slot, both charged to @p comp. False if machine OOM left
     *  the page compressed. */
    bool inflateWithLine(PageNum page, MetadataEntry &m, LineIdx idx,
                         const Line &raw, McTrace &trace, AttribComp comp);
    /** False if machine OOM dropped the write, as above. */
    bool growSlotInPlace(PageNum page, MetadataEntry &m, LineIdx idx,
                         const Line &raw, unsigned bin, McTrace &trace);
    void inflateToUncompressed(PageNum page, MetadataEntry &m,
                               McTrace &trace,
                               AttribComp comp =
                                   AttribComp::kOverflowRelayout);
    void repackPage(PageNum page, McTrace &trace);
    void updateFreeSpace(MetadataEntry &m, const PageShadow &sh);

    // --- predictor wrappers (flip detection for the event trace) ---
    void predictorPageOverflow(PageNum page);
    void predictorPageShrink(PageNum page);

    CompressoConfig cfg_;
    PageOverflowPredictor predictor_;
    OffsetCircuit offsets_;

    std::unordered_map<PageNum, PageShadow> shadow_;

    uint64_t &st_split_wb_lines_ = stats_.stat("split_wb_lines");
    uint64_t &st_line_underflows_ = stats_.stat("line_underflows");
    uint64_t &st_co_fetched_lines_ = stats_.stat("co_fetched_lines");
    uint64_t &st_free_slot_growths_ = stats_.stat("free_slot_growths");
    uint64_t &st_free_page_grows_ = stats_.stat("free_page_grows");
    uint64_t &st_ir_placements_ = stats_.stat("ir_placements");
    uint64_t &st_predictor_inflations_ = stats_.stat("predictor_inflations");
    uint64_t &st_dyn_ir_expansions_ = stats_.stat("dyn_ir_expansions");
    uint64_t &st_repacks_ = stats_.stat("repacks");
    uint64_t &st_repack_read_ops_ = stats_.stat("repack_read_ops");
    uint64_t &st_repack_write_ops_ = stats_.stat("repack_write_ops");
    uint64_t &st_repacks_throttled_ = stats_.stat("repacks_throttled");
    uint64_t &st_inflations_throttled_ =
        stats_.stat("inflations_throttled");
    /** Registered on the first growth, so a run without one reports
     *  no slot_growths key. */
    uint64_t *st_slot_growths_ = nullptr;

    // Observability (src/obs): null when disabled.
    Histogram *h_page_alloc_ = nullptr;   ///< page allocation (occupancy)
    Histogram *h_page_free_ = nullptr;    ///< page free space
    Histogram *h_repack_cost_ = nullptr;  ///< 64 B ops per repack
};

} // namespace compresso

#endif // COMPRESSO_CORE_COMPRESSO_CONTROLLER_H
