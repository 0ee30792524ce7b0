/**
 * @file
 * Tab. II: memory-capacity impact speedups at 80% / 70% / 60%
 * constrained memory, single-core (benchmark average) and 4-core (mix
 * average), for LCP, Compresso, and the unconstrained upper bound.
 *
 * Paper's numbers (relative to the constrained uncompressed system):
 *
 *   mem%   LCP 1c  4c     Compresso 1c  4c    Unconstrained 1c  4c
 *   80%    1.04   1.54    1.15         1.78   1.24             2.1
 *   70%    1.11   1.97    1.29         2.33   1.39             2.51
 *   60%    1.28   2.45    1.56         2.81   1.72             3.23
 */

#include "bench_common.h"

#include "capacity/capacity_eval.h"
#include "workloads/mixes.h"

using namespace compresso;
using namespace compresso::bench;

namespace {

/** One Tab. II cell: the per-workload speedups it averages over. */
struct Cell
{
    std::vector<uint32_t> jobs;
};

uint32_t
addCapJob(Campaign &campaign, std::string label,
          std::vector<std::string> workloads, McKind kind,
          bool unconstrained, double frac, uint64_t touches)
{
    return campaign.add(std::move(label), [=](uint64_t) {
        CapacitySpec spec;
        spec.workloads = workloads;
        spec.kind = kind;
        spec.unconstrained = unconstrained;
        spec.mem_frac = frac;
        spec.touches_per_core = touches;
        JobPayload payload;
        payload.values["speedup"] = capacitySpeedup(spec);
        return payload;
    });
}

Cell
addSingle(Campaign &campaign, McKind kind, bool unconstrained,
          double frac, const std::string &variant)
{
    Cell cell;
    for (const auto &prof : allProfiles()) {
        if (prof.stalls_when_constrained)
            continue; // paper: not all benchmarks finish
        char label[96];
        std::snprintf(label, sizeof label, "%.0f/%s/1c/%s", frac * 100,
                      variant.c_str(), prof.name.c_str());
        cell.jobs.push_back(addCapJob(campaign, label, {prof.name},
                                      kind, unconstrained, frac,
                                      budget(100000)));
    }
    return cell;
}

Cell
addMulti(Campaign &campaign, McKind kind, bool unconstrained,
         double frac, const std::string &variant)
{
    Cell cell;
    for (const auto &mix : allMixes()) {
        char label[96];
        std::snprintf(label, sizeof label, "%.0f/%s/4c/%s", frac * 100,
                      variant.c_str(), mix.name.c_str());
        cell.jobs.push_back(addCapJob(
            campaign, label,
            {mix.benchmarks.begin(), mix.benchmarks.end()}, kind,
            unconstrained, frac, budget(50000)));
    }
    return cell;
}

double
cellGeomean(const CampaignResult &res, const Cell &cell)
{
    std::vector<double> speedups;
    for (uint32_t idx : cell.jobs)
        speedups.push_back(res.records[idx].payload.values.at("speedup"));
    return geomean(speedups);
}

} // namespace

int
main(int argc, char **argv)
{
    sink().init(argc, argv, "tab2_capacity_sweep");

    // Every per-workload capacity evaluation of every cell is an
    // independent job; queue all of them and shard across --jobs, then
    // reduce each cell to its geomean.
    Campaign campaign("tab2_capacity_sweep");
    struct TableRow
    {
        double frac;
        Cell l1, l4, c1, c4, u1, u4;
    };
    std::vector<TableRow> table;
    for (double frac : {0.8, 0.7, 0.6}) {
        TableRow row;
        row.frac = frac;
        row.l1 = addSingle(campaign, McKind::kLcp, false, frac, "lcp");
        row.l4 = addMulti(campaign, McKind::kLcp, false, frac, "lcp");
        row.c1 = addSingle(campaign, McKind::kCompresso, false, frac,
                           "compresso");
        row.c4 = addMulti(campaign, McKind::kCompresso, false, frac,
                          "compresso");
        row.u1 = addSingle(campaign, McKind::kUncompressed, true, frac,
                           "unconstrained");
        row.u4 = addMulti(campaign, McKind::kUncompressed, true, frac,
                          "unconstrained");
        table.push_back(std::move(row));
    }
    CampaignResult res = runCampaign(campaign);
    if (!res.allOk())
        return 1;

    header("Tab. II: capacity-impact speedup vs constrained baseline");
    std::printf("%-6s | %-13s | %-13s | %-13s\n", "", "LCP",
                "Compresso", "Unconstrained");
    std::printf("%-6s | %6s %6s | %6s %6s | %6s %6s\n", "mem%", "1-core",
                "4-core", "1-core", "4-core", "1-core", "4-core");

    for (const TableRow &row : table) {
        std::printf("%-6.0f | %6.2f %6.2f | %6.2f %6.2f | %6.2f %6.2f\n",
                    row.frac * 100, cellGeomean(res, row.l1),
                    cellGeomean(res, row.l4), cellGeomean(res, row.c1),
                    cellGeomean(res, row.c4), cellGeomean(res, row.u1),
                    cellGeomean(res, row.u4));
    }
    std::printf("\nPaper rows: 80%%: 1.04/1.54 | 1.15/1.78 | 1.24/2.1\n"
                "            70%%: 1.11/1.97 | 1.29/2.33 | 1.39/2.51\n"
                "            60%%: 1.28/2.45 | 1.56/2.81 | 1.72/3.23\n");
    return sink().finish();
}
