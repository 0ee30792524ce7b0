/**
 * @file
 * Full-system wiring: cores + cache hierarchy + memory controller +
 * DRAM, driven by workload access streams (Tab. III configuration).
 */

#ifndef COMPRESSO_SIM_SYSTEM_H
#define COMPRESSO_SIM_SYSTEM_H

#include <memory>
#include <string>
#include <vector>

#include "cache/hierarchy.h"
#include "core/compresso_controller.h"
#include "core/lcp_controller.h"
#include "core/rmc_controller.h"
#include "core/uncompressed_controller.h"
#include "dram/dram_model.h"
#include "fault/fault_injector.h"
#include "obs/observer.h"
#include "sim/core_model.h"
#include "workloads/access_stream.h"

namespace compresso {

/** Which memory back end the system uses. */
enum class McKind
{
    kUncompressed,
    kLcp,      ///< OS-aware LCP baseline
    kLcpAlign, ///< LCP with alignment-friendly targets
    kRmc,      ///< OS-aware RMC baseline (subpage hysteresis)
    kCompresso,
};

const char *mcKindName(McKind kind);

struct SystemConfig
{
    unsigned cores = 1;
    /** Stride-1 next-line prefetch into the LLC on detected streams
     *  (present in all systems, like any modern baseline core). */
    bool next_line_prefetch = true;
    McKind kind = McKind::kCompresso;
    CompressoConfig compresso; ///< used when kind == kCompresso
    HierarchyConfig hierarchy; ///< l3 sized by caller (2 MB / 8 MB)
    DramConfig dram;
    CoreConfig core;
    /** Fault campaign (src/fault): when any rate is nonzero the system
     *  owns a seed-deterministic FaultInjector attached to both the
     *  controller and the DRAM timing model. */
    FaultConfig fault;
    /** Observability (src/obs): when enabled the system owns an
     *  Observer attached to the controller, metadata cache, and DRAM
     *  model; disabled runs never construct it (null pointer gate). */
    ObsConfig obs;
};

/** The controller @p cfg.kind names, built from @p cfg's settings. */
std::unique_ptr<MemoryController> makeController(const SystemConfig &cfg);

class System
{
  public:
    /**
     * @param cfg       system configuration
     * @param workloads one profile name per core; each core gets a
     *                  disjoint OSPA range
     * @param seed      experiment seed
     */
    System(const SystemConfig &cfg,
           const std::vector<std::string> &workloads, uint64_t seed);

    /** Write every line's initial image through the controller (the
     *  benchmark's pre-existing data), then clear statistics. */
    void populate();

    /** Run until every core has issued @p refs_per_core references. */
    void run(uint64_t refs_per_core);

    /** Max core cycle count (the system's wall clock). */
    Cycle cycles() const;
    uint64_t instsRetired() const;

    MemoryController &mc() { return *mc_; }
    DramModel &dram() { return dram_; }
    Hierarchy &hierarchy() { return hier_; }
    AccessStream &stream(unsigned core) { return *streams_[core]; }
    MetadataCache *metadataCache() { return mc_->metadataCache(); }
    /** Non-null only when the config enabled fault injection. */
    FaultInjector *faultInjector() { return fault_.get(); }
    /** Non-null only when the config enabled observability. */
    Observer *observer() { return obs_.get(); }

    void resetStats();

  private:
    void step(unsigned core);
    /** Advance the observer clock and epoch sampler (obs_ non-null). */
    void observeRef(unsigned core);
    /** Account a trace's fixed latency (and optionally its stall) that
     *  the timing model does not put on the core's critical path. */
    void noteBackgroundFixed(const McTrace &tr, bool include_stall);
    Cycle serviceFill(unsigned core, Addr addr, Cycle now);
    void prefetchLine(unsigned core, Addr addr);
    void serviceWriteback(unsigned core, Addr addr);
    AccessStream *streamOwning(Addr addr);

    SystemConfig cfg_;
    std::unique_ptr<FaultInjector> fault_;
    std::unique_ptr<Observer> obs_;
    /** Cached Observer::attrib() handle; null when attribution is off
     *  (constant nullptr under COMPRESSO_OBS_DISABLED, so every
     *  attribution block below compiles out). */
    CycleAttributor *attrib_ = nullptr;
    std::unique_ptr<MemoryController> mc_;
    DramModel dram_;
    Hierarchy hier_;
    std::vector<CoreModel> cores_;
    /** Per-core 8-entry stream table (recent miss lines). */
    std::vector<std::array<Addr, 8>> miss_table_;
    std::vector<unsigned> miss_table_pos_;
    std::vector<std::unique_ptr<AccessStream>> streams_;
};

} // namespace compresso

#endif // COMPRESSO_SIM_SYSTEM_H
