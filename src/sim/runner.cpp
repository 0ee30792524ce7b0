#include "sim/runner.h"

namespace compresso {

SystemConfig
makeSystemConfig(McKind kind, unsigned cores, const RunSpec &spec)
{
    SystemConfig cfg;
    cfg.kind = kind;
    cfg.cores = cores;
    cfg.compresso = spec.compresso;
    cfg.fault = spec.fault;
    cfg.obs = spec.obs;
    cfg.hierarchy.l3_bytes = cores > 1 ? size_t(8) << 20 : size_t(2) << 20;
    // 4-core systems run dual-channel memory, as on real boards.
    if (cores > 1 && cfg.dram.channels == 1)
        cfg.dram.channels = 2;
    return cfg;
}

RunResult
runSystem(const RunSpec &spec)
{
    unsigned cores = unsigned(spec.workloads.size());
    SystemConfig cfg = makeSystemConfig(spec.kind, cores, spec);

    // Host profiling (src/prof): activate for the whole build+run so
    // every CPR_PROF_SCOPE site on this thread collects; the
    // throughput gauges cover only the measured (post-warmup) section.
    std::unique_ptr<Profiler> prof;
    if (spec.prof.enabled)
        prof = std::make_unique<Profiler>();
    ProfScope prof_scope(prof.get());

    System sys(cfg, spec.workloads, spec.seed);

    // Stamp the run context into the flight recorder up front so every
    // bundle carries it, however early the first trigger fires.
    if (Observer *obs = sys.observer()) {
        if (FlightRecorder *fr = obs->flightRecorder()) {
            fr->setNote("kind", mcKindName(spec.kind));
            fr->setNote("seed", std::to_string(spec.seed));
            std::string wl;
            for (const std::string &w : spec.workloads) {
                if (!wl.empty())
                    wl += ",";
                wl += w;
            }
            fr->setNote("workloads", wl);
        }
    }

    sys.populate();
    if (spec.warmup_refs > 0) {
        sys.run(spec.warmup_refs);
        sys.resetStats();
    }
    uint64_t host_t0 = prof ? profNowNs() : 0;
    sys.run(spec.refs_per_core);
    if (prof) {
        prof->addWallNs(profNowNs() - host_t0);
        prof->addWork(spec.refs_per_core * cores);
    }

    RunResult r;
    r.label = mcKindName(spec.kind);
    r.cycles = double(sys.cycles());
    r.insts = sys.instsRetired();
    r.perf = r.cycles > 0 ? double(r.insts) / r.cycles : 0;
    r.comp_ratio = sys.mc().compressionRatio();
    r.effective_ratio = sys.mc().effectiveRatio();
    r.mc_stats = sys.mc().stats();
    r.dram_stats = sys.dram().stats();
    if (FaultInjector *fi = sys.faultInjector()) {
        r.reliability = fi->report();
        r.reliability.mergeInto(r.mc_stats);
        r.audit_violations = sys.mc().audit().violations().size();
    }

    const StatGroup &mc = r.mc_stats;
    double baseline = double(mc.get("fills") + mc.get("writebacks"));
    if (baseline > 0) {
        r.extra_split = double(mc.get("split_extra_ops")) / baseline;
        r.extra_overflow = double(mc.get("overflow_move_ops") +
                                  mc.get("exception_extra_ops")) /
                           baseline;
        r.extra_repack = double(mc.get("repack_read_ops") +
                                mc.get("repack_write_ops")) /
                         baseline;
        r.extra_metadata = double(mc.get("md_read_ops") +
                                  mc.get("md_write_ops")) /
                           baseline;
        r.extra_total = r.extra_split + r.extra_overflow +
                        r.extra_repack + r.extra_metadata;
        r.zero_access_frac =
            double(mc.get("zero_fills") + mc.get("zero_wbs")) / baseline;
    }
    if (MetadataCache *mdc = sys.metadataCache())
        r.md_hit_rate = mdc->stats().ratio("hits", "accesses");
    if (prof)
        r.prof = prof->snapshot();
    if (Observer *obs = sys.observer()) {
        r.obs = obs->snapshot();
        if (CycleAttributor *at = obs->attrib())
            r.attrib = at->snapshot();
        if (!spec.obs_trace_path.empty())
            obs->writeChromeTrace(spec.obs_trace_path);
        if (!spec.obs_epoch_csv_path.empty())
            obs->writeEpochCsv(spec.obs_epoch_csv_path);
        if (FlightRecorder *fr = obs->flightRecorder()) {
            // End-of-run invariant sweep: any open violation becomes a
            // forced trigger so the final bundle names it. mc_stats and
            // audit_violations were harvested above, so the sweep never
            // changes the run document's metrics.
            AuditReport audit = sys.mc().audit();
            if (!audit.clean()) {
                fr->setNote("audit", audit.summary());
                fr->trigger(PostmortemTrigger::kAuditViolation, kNoPage,
                            uint32_t(audit.violations().size()),
                            /*force=*/true);
            }
            r.postmortems = fr->bundles();
        }
    }
    return r;
}

} // namespace compresso
