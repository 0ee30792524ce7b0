/**
 * @file
 * Fig. 4: compression-related extra memory accesses of the
 * *unoptimized* compressed system, relative to the accesses an
 * uncompressed memory would make, broken into split-access /
 * overflow-handling / metadata-miss components. Left bars use fixed
 * 512 B chunk allocation, right bars 4 variable page sizes.
 *
 * Paper's reported shape: 63% average extra accesses (variable-size
 * baseline), maximum near 180%, with split accesses ~31% and metadata
 * misses dominating for omnetpp/Forestfire/Pagerank/Graph500.
 */

#include "bench_common.h"

#include "sim/runner.h"

using namespace compresso;
using namespace compresso::bench;

namespace {

RunSpec
spec(const std::string &bench, PageSizing sizing)
{
    RunSpec s;
    s.kind = McKind::kCompresso;
    s.workloads = {bench};
    s.refs_per_core = budget(150000);
    s.warmup_refs = budget(15000);
    // Unoptimized baseline: legacy size bins, no Sec. IV optimizations.
    s.compresso.line_bins = &legacyBins();
    s.compresso.overflow_prediction = false;
    s.compresso.dynamic_ir_expansion = false;
    s.compresso.repack_on_evict = false;
    s.compresso.mdcache.half_entry_opt = false;
    s.compresso.page_sizing = sizing;
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    sink().init(argc, argv, "fig04_data_movement");

    // Queue every (benchmark, sizing) cell, then shard across --jobs.
    Campaign campaign("fig04_data_movement");
    struct Row
    {
        std::string bench;
        uint32_t fixed, variable;
    };
    std::vector<Row> rows;
    for (const auto &prof : allProfiles()) {
        Row row;
        row.bench = prof.name;
        row.fixed = addRun(campaign, prof.name + "/fixed",
                           spec(prof.name, PageSizing::kChunked512));
        row.variable = addRun(campaign, prof.name + "/variable",
                              spec(prof.name, PageSizing::kVariable4));
        rows.push_back(std::move(row));
    }
    CampaignResult res = runCampaign(campaign);
    if (!res.allOk())
        return 1;

    header("Fig. 4: extra accesses of the unoptimized compressed system");
    std::printf("%-12s | %28s | %28s\n", "",
                "fixed 512B chunks", "4 variable page sizes");
    std::printf("%-12s | %6s %6s %6s %6s | %6s %6s %6s %6s\n",
                "benchmark", "split", "ovflw", "meta", "total", "split",
                "ovflw", "meta", "total");

    std::vector<double> totals_fixed, totals_var;
    for (const Row &row : rows) {
        const RunResult &fixed = res.records[row.fixed].run();
        const RunResult &var = res.records[row.variable].run();
        std::printf(
            "%-12s | %6.2f %6.2f %6.2f %6.2f | %6.2f %6.2f %6.2f %6.2f\n",
            row.bench.c_str(), fixed.extra_split, fixed.extra_overflow,
            fixed.extra_metadata, fixed.extra_total, var.extra_split,
            var.extra_overflow, var.extra_metadata, var.extra_total);
        totals_fixed.push_back(fixed.extra_total);
        totals_var.push_back(var.extra_total);
    }
    std::printf("%-12s | %27.2f%% | %27.2f%%\n", "Average",
                100 * mean(totals_fixed), 100 * mean(totals_var));
    std::printf("\nPaper: ~63%% average extra accesses for the "
                "variable-size competitive baseline, max ~180%%.\n");
    return sink().finish();
}
