/**
 * @file
 * Memory-side controller interface shared by the four back ends: the
 * uncompressed baseline and the compressed Compresso, LCP and RMC
 * (core/compressed_controller.h).
 *
 * Controllers are *functional*: fills return the bytes previously
 * written back, with compression, packing, metadata and allocation
 * really performed. Timing is expressed as a trace of 64 B device
 * operations plus fixed latencies; the system simulator feeds the
 * trace through the DRAM model.
 */

#ifndef COMPRESSO_CORE_MEMORY_CONTROLLER_H
#define COMPRESSO_CORE_MEMORY_CONTROLLER_H

#include <array>
#include <vector>

#include "check/audit_report.h"
#include "common/stats.h"
#include "common/types.h"
#include "dram/dram_model.h"
#include "obs/attrib.h"

namespace compresso {

class FaultInjector;
class MetadataCache;
class Observer;
class PressureListener;

/** Timing-relevant outcome of one controller operation. */
struct McTrace
{
    /** Device accesses in issue order. Critical ops stall the
     *  requesting load; background ops only consume bandwidth. */
    std::vector<DramOp> ops;
    /** Fixed controller latency: metadata-cache hit, offset adder,
     *  (de)compression. Maintained alongside fixed_by_comp via
     *  addFixed() so the attribution split always sums to it exactly
     *  (the DESIGN.md §15 conservation invariant). */
    Cycle fixed_latency = 0;
    /** Per-component split of fixed_latency. */
    std::array<Cycle, kAttribComps> fixed_by_comp{};
    /** Whether the OSPA->MPA metadata lookup hit the metadata cache. */
    bool metadata_hit = true;
    /** LCP speculation: the first critical data op may issue in
     *  parallel with the metadata op rather than after it. */
    bool speculative_parallel = false;
    /** Synchronous software cost (OS page-fault handling in the
     *  OS-aware baseline) that stalls the core outright. */
    Cycle stall_cycles = 0;
    /** Component the stall_cycles are attributed to. */
    AttribComp stall_comp = AttribComp::kOsFault;
    /** Free prefetch (Sec. VII-A): other whole compressed lines that
     *  arrived in the same 64 B device bursts; the system inserts them
     *  into the LLC, where they live or die by normal replacement. */
    std::vector<Addr> co_fetched;

    void
    add(Addr addr, bool write, bool critical,
        AttribComp comp = AttribComp::kDeviceData)
    {
        ops.push_back(DramOp{addr, write, critical, comp});
    }

    /** Add fixed controller latency attributed to @p comp; the only
     *  sanctioned way to grow fixed_latency, so the per-component
     *  split can never drift from the total. */
    void
    addFixed(AttribComp comp, Cycle cycles)
    {
        fixed_latency += cycles;
        fixed_by_comp[size_t(comp)] += cycles;
    }

    /** Add a synchronous core stall attributed to @p comp. */
    void
    addStall(AttribComp comp, Cycle cycles)
    {
        stall_cycles += cycles;
        stall_comp = comp;
    }

    unsigned
    criticalReads() const
    {
        unsigned n = 0;
        for (const auto &op : ops)
            n += op.critical && !op.write;
        return n;
    }
};

class MemoryController
{
  public:
    virtual ~MemoryController() = default;

    virtual std::string name() const = 0;

    /** Service an LLC fill: read the line at OSPA @p addr. */
    virtual void fillLine(Addr addr, Line &data, McTrace &trace) = 0;

    /** Service an LLC writeback of @p data to OSPA @p addr. */
    virtual void writebackLine(Addr addr, const Line &data,
                               McTrace &trace) = 0;

    /** OSPA bytes of all pages ever touched (the footprint). */
    virtual uint64_t ospaBytes() const = 0;

    /** MPA bytes in use for data (excluding metadata). */
    virtual uint64_t mpaDataBytes() const = 0;

    /** MPA bytes in use for compression metadata. */
    virtual uint64_t mpaMetadataBytes() const { return 0; }

    /** Data-only compression ratio over touched pages (the paper's
     *  headline number, which excludes metadata). */
    double
    compressionRatio() const
    {
        uint64_t mpa = mpaDataBytes();
        return mpa == 0 ? 1.0 : double(ospaBytes()) / double(mpa);
    }

    /** Metadata-inclusive compression ratio: what capacity planning
     *  actually gets after paying the ~1.6% metadata overhead. */
    double
    effectiveRatio() const
    {
        uint64_t mpa = mpaDataBytes() + mpaMetadataBytes();
        return mpa == 0 ? 1.0 : double(ospaBytes()) / double(mpa);
    }

    /**
     * Attach a fault injector (fault/fault_injector.h): exposed reads
     * are adjudicated through its ECC model and detected faults enter
     * the controller's degradation ladder. Pass nullptr to detach.
     * Controllers without fault support ignore the call.
     */
    virtual void attachFaultInjector(FaultInjector *fi) { (void)fi; }

    /**
     * Attach the observability layer (src/obs): controllers emit
     * structured events (overflow, repack, fault-ladder steps...) and
     * feed histograms through it. Pass nullptr to detach; controllers
     * without instrumentation ignore the call.
     */
    virtual void attachObserver(Observer *obs) { (void)obs; }

    /**
     * Attach the memory-pressure listener (core/pressure_hooks.h):
     * machine-OOM rescue, per-operation admission and stall-cost
     * reporting. Pass nullptr to detach; controllers without pressure
     * support ignore the call.
     */
    virtual void attachPressureListener(PressureListener *pl) { (void)pl; }

    /** The on-chip metadata cache (RMC: its BST cache), or nullptr
     *  for a controller without one. */
    virtual MetadataCache *metadataCache() { return nullptr; }

    /** Release an OSPA page (balloon driver path, Sec. V-B). */
    virtual void freePage(PageNum page) { (void)page; }

    /**
     * Machine bytes currently backing OSPA page @p page (0 for
     * untouched/zero pages). The pressure governor ranks reclaim
     * victims by this — emergency ballooning frees the
     * most-compressible pages first, because under a compressibility
     * collapse those are the cold cheap ones while the incompressible
     * pages are the hot set. Controllers without per-page accounting
     * report the worst case (a full page) so the governor deprioritizes
     * what it cannot see into.
     */
    virtual uint64_t
    pageCompressedBytes(PageNum page) const
    {
        (void)page;
        return kPageBytes;
    }

    /**
     * True while an operation on @p page is live on the controller's
     * call stack (its metadata reference is held by a caller frame).
     * Emergency reclaim runs *inside* an OOM'd allocation, so the
     * governor must filter busy pages out of its victim set — freeing
     * one would reset state a caller still points at.
     */
    virtual bool
    pageBusy(PageNum page) const
    {
        (void)page;
        return false;
    }

    /** Flush lazily-buffered state (e.g., force pending repacking);
     *  used by tests and capacity accounting. */
    virtual void flush() {}

    /**
     * Full invariant audit of the controller's compressed-memory
     * state (src/check/invariant_auditor.h): chunk map vs allocator
     * free list, per-page metadata consistency, layout bounds.
     * Controllers without auditable state report clean.
     */
    virtual AuditReport audit() const { return AuditReport{}; }

    virtual StatGroup &stats() = 0;
    virtual const StatGroup &stats() const = 0;
};

} // namespace compresso

#endif // COMPRESSO_CORE_MEMORY_CONTROLLER_H
