/**
 * @file
 * Sec. IV-A1 / IV-B1 ablations: the size-bin trade-offs Compresso's
 * design rests on.
 *
 *  - 8 vs 4 cache-line bins: paper reports 1.82 vs 1.59 average ratio
 *    (with 8 page sizes) but 17.5% more line overflows with 8 bins.
 *  - 8 vs 4 page sizes: 1.85 vs 1.59 average ratio, but up to 53% more
 *    page-resizing accesses with 8 sizes (absent the optimizations).
 *  - 0/22/44/64 vs 0/8/32/64 line bins: split-access lines 30.9% ->
 *    3.2% for only 0.25% compression loss.
 */

#include "bench_common.h"

#include "sim/runner.h"

using namespace compresso;
using namespace compresso::bench;

namespace {

/** A churny subset exercising overflows and splits. */
const char *kSubset[] = {"gcc",  "astar",   "soplex",  "bzip2",
                         "milc", "sphinx3", "h264ref", "Graph500"};

/** Full-budget references per run. */
constexpr uint64_t kRefs = 120000;

struct Numbers
{
    double ratio;
    double line_overflows; ///< per 1000 references
    double page_resizes;   ///< per 1000 references
    double split_frac;     ///< split fills / fills
};

RunSpec
spec(const std::string &bench, const SizeBins *bins, PageSizing sizing)
{
    RunSpec s;
    s.kind = McKind::kCompresso;
    s.workloads = {bench};
    s.refs_per_core = budget(kRefs);
    s.warmup_refs = budget(12000);
    s.compresso.line_bins = bins;
    s.compresso.page_sizing = sizing;
    // Measure the raw trade-off without the mitigation machinery.
    s.compresso.overflow_prediction = false;
    s.compresso.dynamic_ir_expansion = false;
    return s;
}

/** Queue one configuration's run per subset benchmark; returns the
 *  index of the first (the others follow in kSubset order). */
uint32_t
queue(Campaign &campaign, const SizeBins *bins, PageSizing sizing)
{
    uint32_t first = uint32_t(campaign.size());
    for (const char *bench : kSubset)
        addRun(campaign,
               std::string(bench) + "/" + mcKindName(McKind::kCompresso),
               spec(bench, bins, sizing));
    return first;
}

Numbers
numbersOf(const RunResult &r)
{
    Numbers n;
    n.ratio = r.comp_ratio;
    double k = double(budget(kRefs)) / 1000.0;
    n.line_overflows = double(r.mc_stats.get("line_overflows")) / k;
    n.page_resizes = double(r.mc_stats.get("page_overflows")) / k;
    uint64_t fills = r.mc_stats.get("fills");
    n.split_frac =
        fills ? double(r.mc_stats.get("split_fill_lines")) / fills : 0;
    return n;
}

Numbers
average(const CampaignResult &res, uint32_t first)
{
    Numbers avg{0, 0, 0, 0};
    size_t n = std::size(kSubset);
    for (size_t i = 0; i < n; ++i) {
        Numbers x = numbersOf(res.records[first + i].run());
        avg.ratio += x.ratio / double(n);
        avg.line_overflows += x.line_overflows / double(n);
        avg.page_resizes += x.page_resizes / double(n);
        avg.split_frac += x.split_frac / double(n);
    }
    return avg;
}

void
row(const char *label, const Numbers &n)
{
    std::printf("%-26s %8.2f %12.2f %12.2f %9.1f%%\n", label, n.ratio,
                n.line_overflows, n.page_resizes, 100 * n.split_frac);
}

} // namespace

int
main(int argc, char **argv)
{
    sink().init(argc, argv, "tab_ablation_bins");

    // Queue every (configuration, benchmark) run, then shard across
    // --jobs.
    Campaign campaign("tab_ablation_bins");
    uint32_t j_four =
        queue(campaign, &compressoBins(), PageSizing::kChunked512);
    uint32_t j_eight = queue(campaign, &eightBins(), PageSizing::kChunked512);
    uint32_t j_legacy =
        queue(campaign, &legacyBins(), PageSizing::kChunked512);
    uint32_t j_var4 =
        queue(campaign, &compressoBins(), PageSizing::kVariable4);
    CampaignResult res = runCampaign(campaign);
    if (!res.allOk())
        return 1;

    header("Sec. IV-A1/IV-B1: size-bin trade-off ablations");
    std::printf("%-26s %8s %12s %12s %10s\n", "configuration", "ratio",
                "lineovf/1k", "pageresz/1k", "splits");

    Numbers four = average(res, j_four);
    Numbers eight = average(res, j_eight);
    Numbers legacy = average(res, j_legacy);
    Numbers var4 = average(res, j_var4);

    row("4 line bins (0/8/32/64)", four);
    row("8 line bins", eight);
    row("4 line bins (0/22/44/64)", legacy);
    row("4 page sizes (variable)", var4);

    std::printf("\n8 line bins vs 4: ratio %+.1f%%, line overflows "
                "%+.1f%%  (paper: +14%% ratio, +17.5%% overflows)\n",
                100 * (eight.ratio / four.ratio - 1),
                100 * (eight.line_overflows /
                           std::max(four.line_overflows, 1e-9) -
                       1));
    std::printf("8 page sizes vs 4: ratio %+.1f%%, resize events "
                "%+.1f%%\n",
                100 * (four.ratio / var4.ratio - 1),
                100 * (four.page_resizes /
                           std::max(var4.page_resizes, 1e-9) -
                       1));
    std::printf("Alignment-friendly vs legacy bins: splits %.1f%% -> "
                "%.1f%% (paper 30.9%% -> 3.2%%), ratio cost %.2f%% "
                "(paper 0.25%%)\n",
                100 * legacy.split_frac, 100 * four.split_frac,
                100 * (1 - four.ratio / legacy.ratio));
    return sink().finish();
}
