/**
 * @file
 * Fig. 8 (companion analysis): where the simulated cycles of each
 * memory-controller design actually go. Two stacked per-component
 * tables built from the cycle attributor (DESIGN.md §15):
 *
 *  A. controller comparison — uncompressed / LCP / RMC / Compresso,
 *     merged over every workload profile: percent of attributed
 *     critical-path cycles per taxonomy component.
 *  B. Compresso optimization walk — the Fig. 6 toggle stages
 *     (base, +align, +predict, +dynIR, +repack, +mdopt), showing
 *     which component each optimization actually shrinks.
 *
 * Attribution is forced on for every job regardless of --obs, since
 * the breakdown *is* the figure. All printed numbers derive only from
 * simulated metrics, so output is bit-identical across --jobs counts.
 * CPR_BENCH_QUICK=1 runs tenth-size budgets.
 */

#include "bench_common.h"

#include <array>
#include <string>
#include <vector>

#include "sim/runner.h"

using namespace compresso;
using namespace compresso::bench;

namespace {

constexpr unsigned kStages = 6;
const char *kStageNames[kStages] = {
    "base", "+align", "+predict", "+dynIR", "+repack", "+mdopt",
};

CompressoConfig
stageConfig(unsigned stage)
{
    CompressoConfig cfg;
    cfg.line_bins = stage >= 1 ? &compressoBins() : &legacyBins();
    cfg.overflow_prediction = stage >= 2;
    cfg.dynamic_ir_expansion = stage >= 3;
    cfg.repack_on_evict = stage >= 4;
    cfg.mdcache.half_entry_opt = stage >= 5;
    return cfg;
}

const McKind kKinds[] = {
    McKind::kUncompressed,
    McKind::kLcp,
    McKind::kRmc,
    McKind::kCompresso,
};

RunSpec
baseSpec(McKind kind, const std::string &bench)
{
    RunSpec s;
    s.kind = kind;
    s.workloads = {bench};
    s.refs_per_core = budget(60000);
    s.warmup_refs = budget(6000);
    // The breakdown is the figure: attribution on unconditionally.
    s.obs.enabled = true;
    return s;
}

/** Column of either table: attribution snapshots summed over the
 *  jobs that share a controller kind or optimization stage. */
struct Merged
{
    uint64_t refs = 0;
    uint64_t total = 0;
    uint64_t conservation_failures = 0;
    std::array<Cycle, kAttribComps> comp{};
    std::array<Cycle, kAttribComps> background{};

    void
    add(const AttribSnapshot &a)
    {
        refs += a.refs;
        total += a.total_cycles;
        conservation_failures += a.conservation_failures;
        for (size_t c = 0; c < kAttribComps; ++c) {
            comp[c] += a.comps[c].cycles;
            background[c] += a.comps[c].background_cycles;
        }
    }
};

/** Percent-of-total stacked table: one row per taxonomy component
 *  (all-zero rows skipped), then totals. */
void
printStacked(const std::vector<std::string> &cols,
             const std::vector<Merged> &merged)
{
    std::printf("%-18s", "component");
    for (const std::string &c : cols)
        std::printf(" %12s", c.c_str());
    std::printf("\n");
    for (size_t c = 0; c < kAttribComps; ++c) {
        bool any = false;
        for (const Merged &m : merged)
            any = any || m.comp[c] > 0;
        if (!any)
            continue;
        std::printf("%-18s", attribCompName(AttribComp(c)));
        for (const Merged &m : merged) {
            double pct = m.total > 0
                             ? 100.0 * double(m.comp[c]) / double(m.total)
                             : 0.0;
            std::printf(" %11.2f%%", pct);
        }
        std::printf("\n");
    }
    std::printf("%-18s", "cycles/ref");
    for (const Merged &m : merged)
        std::printf(" %12.2f",
                    m.refs > 0 ? double(m.total) / double(m.refs) : 0.0);
    std::printf("\n");
    std::printf("%-18s", "background/ref");
    for (const Merged &m : merged) {
        Cycle bg = 0;
        for (size_t c = 0; c < kAttribComps; ++c)
            bg += m.background[c];
        std::printf(" %12.2f",
                    m.refs > 0 ? double(bg) / double(m.refs) : 0.0);
    }
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    sink().init(argc, argv, "fig08_overhead_breakdown");
    if (!sink().extraArgs().empty()) {
        std::fprintf(stderr, "unknown argument: %s (try --help)\n",
                     sink().extraArgs().front().c_str());
        return 2;
    }

    // One campaign holds both sweeps; every cell is an independent
    // simulation, sharded across --jobs. Merging happens here from the
    // per-job snapshots (and per controller kind in the campaign
    // aggregates for --campaign-json).
    Campaign campaign("fig08_overhead_breakdown");
    constexpr size_t kKindCount = sizeof(kKinds) / sizeof(kKinds[0]);
    std::vector<std::vector<uint32_t>> kind_jobs(kKindCount);
    std::vector<std::vector<uint32_t>> stage_jobs(kStages);
    for (const auto &prof : allProfiles()) {
        for (size_t k = 0; k < kKindCount; ++k)
            kind_jobs[k].push_back(
                addRun(campaign,
                       std::string(mcKindName(kKinds[k])) + "/" + prof.name,
                       baseSpec(kKinds[k], prof.name)));
        for (unsigned stage = 0; stage < kStages; ++stage) {
            RunSpec s = baseSpec(McKind::kCompresso, prof.name);
            s.compresso = stageConfig(stage);
            stage_jobs[stage].push_back(
                addRun(campaign,
                       std::string("stage/") + kStageNames[stage] + "/" +
                           prof.name,
                       std::move(s)));
        }
    }
    CampaignResult res = runCampaign(campaign);
    if (!res.allOk())
        return 1;

    auto mergeOf = [&](const std::vector<uint32_t> &idx) {
        Merged m;
        for (uint32_t i : idx)
            m.add(res.records[i].run().attrib);
        return m;
    };

    std::vector<std::string> kind_cols;
    std::vector<Merged> kind_merged;
    for (size_t k = 0; k < kKindCount; ++k) {
        kind_cols.push_back(mcKindName(kKinds[k]));
        kind_merged.push_back(mergeOf(kind_jobs[k]));
    }
    header("Fig. 8a: critical-path cycle breakdown by controller "
           "(percent of attributed cycles, all workloads)");
    printStacked(kind_cols, kind_merged);

    std::vector<std::string> stage_cols(kStageNames,
                                        kStageNames + kStages);
    std::vector<Merged> stage_merged;
    for (unsigned stage = 0; stage < kStages; ++stage)
        stage_merged.push_back(mergeOf(stage_jobs[stage]));
    header("Fig. 8b: Compresso breakdown as the Sec. IV optimizations "
           "stack");
    printStacked(stage_cols, stage_merged);

    uint64_t failures = 0;
    for (const Merged &m : kind_merged)
        failures += m.conservation_failures;
    for (const Merged &m : stage_merged)
        failures += m.conservation_failures;
    if (failures > 0) {
        std::fprintf(stderr,
                     "error: %llu conservation failures (component "
                     "cycles did not sum to reference totals)\n",
                     (unsigned long long)failures);
        return 1;
    }
    std::printf("\nConservation: every reference's component cycles "
                "summed exactly to its attributed total.\n");
    return sink().finish();
}
