/**
 * @file
 * Fig. 6: reduction in compression-related extra accesses as the
 * Sec. IV-B optimizations are applied one by one on the fixed-chunk
 * system:
 *
 *   base (legacy bins, no opts)      paper: 63%
 *   + alignment-friendly line bins   paper: 36%
 *   + page-overflow prediction       paper: 26%
 *   + dynamic IR expansion           paper: 19%
 *   + dynamic repacking              paper: +1.8% (spends accesses to
 *                                    recover compression)
 *   + metadata-cache optimization    paper: 15% final
 */

#include "bench_common.h"

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

} // namespace

int
main(int argc, char **argv)
{
    sink().init(argc, argv, "fig06_optimizations");

    // benchmark x stage cells are independent simulations: queue the
    // whole cross product and shard it across --jobs.
    Campaign campaign("fig06_optimizations");
    std::vector<std::string> benches;
    std::vector<uint32_t> first_idx; // per bench: its stage-0 job
    for (const auto &prof : allProfiles()) {
        benches.push_back(prof.name);
        for (unsigned stage = 0; stage < kStages; ++stage) {
            RunSpec spec;
            spec.kind = McKind::kCompresso;
            spec.workloads = {prof.name};
            spec.refs_per_core = budget(120000);
            spec.warmup_refs = budget(12000);
            spec.compresso = stageConfig(stage);
            uint32_t idx = addRun(
                campaign, prof.name + "/" + kStageNames[stage],
                std::move(spec));
            if (stage == 0)
                first_idx.push_back(idx);
        }
    }
    CampaignResult res = runCampaign(campaign);
    if (!res.allOk())
        return 1;

    header("Fig. 6: extra accesses as optimizations stack (fixed chunks)");
    std::printf("%-12s", "benchmark");
    for (const char *s : kStageNames)
        std::printf(" %8s", s);
    std::printf("\n");

    std::vector<std::vector<double>> totals(kStages);
    for (size_t b = 0; b < benches.size(); ++b) {
        std::printf("%-12s", benches[b].c_str());
        for (unsigned stage = 0; stage < kStages; ++stage) {
            const RunResult &r =
                res.records[first_idx[b] + stage].run();
            std::printf(" %8.2f", r.extra_total);
            totals[stage].push_back(r.extra_total);
        }
        std::printf("\n");
    }
    std::printf("%-12s", "Average");
    for (unsigned stage = 0; stage < kStages; ++stage)
        std::printf(" %7.1f%%", 100 * mean(totals[stage]));
    std::printf("\n\nPaper averages: 63%% -> 36%% -> 26%% -> 19%% -> "
                "(+repack overhead) -> 15%%\n");
    return sink().finish();
}
