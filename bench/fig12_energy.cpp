/**
 * @file
 * Fig. 12: DRAM and core energy relative to the uncompressed system.
 *
 * Paper's reported shape: well-compressed benchmarks (zeusmp,
 * cactusADM) save DRAM energy via zero-line metadata hits; metadata
 * thrashers (mcf, omnetpp, Forestfire, Pagerank) pay extra DRAM
 * energy; overall Compresso cuts DRAM energy ~11% vs uncompressed and
 * saves ~60% more energy than the LCP system; core energy is equal.
 */

#include "bench_common.h"

#include "energy/energy_model.h"
#include "sim/runner.h"

using namespace compresso;
using namespace compresso::bench;

namespace {

struct Point
{
    EnergyBreakdown energy;
    double cycles;
};

uint32_t
queue(Campaign &campaign, McKind kind, const std::string &bench)
{
    RunSpec spec;
    spec.kind = kind;
    spec.workloads = {bench};
    spec.refs_per_core = budget(100000);
    spec.warmup_refs = budget(10000);
    return addRun(campaign, bench + "/" + mcKindName(kind),
                  std::move(spec));
}

Point
energyOf(const JobRecord &rec, McKind kind)
{
    const RunResult &r = rec.run();
    uint64_t compressions = 0;
    uint64_t md_accesses = 0;
    if (kind != McKind::kUncompressed) {
        // Fills of compressed lines decompress; writebacks compress.
        compressions = r.mc_stats.get("fills") +
                       r.mc_stats.get("writebacks");
        md_accesses = r.mc_stats.get("fills") +
                      r.mc_stats.get("writebacks");
    }
    Point p;
    p.cycles = r.cycles;
    p.energy = computeEnergy(r.dram_stats, r.cycles, 1, compressions,
                             md_accesses);
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    sink().init(argc, argv, "fig12_energy");

    // Queue every (benchmark, controller) run, then shard across --jobs.
    Campaign campaign("fig12_energy");
    struct Row
    {
        std::string bench;
        uint32_t base, lcp, lcpa, cmp;
    };
    std::vector<Row> rows;
    for (const auto &prof : allProfiles()) {
        Row row;
        row.bench = prof.name;
        row.base = queue(campaign, McKind::kUncompressed, prof.name);
        row.lcp = queue(campaign, McKind::kLcp, prof.name);
        row.lcpa = queue(campaign, McKind::kLcpAlign, prof.name);
        row.cmp = queue(campaign, McKind::kCompresso, prof.name);
        rows.push_back(std::move(row));
    }
    CampaignResult res = runCampaign(campaign);
    if (!res.allOk())
        return 1;

    header("Fig. 12: energy relative to the uncompressed system");
    std::printf("%-12s %10s %10s %10s %10s\n", "benchmark", "dram(lcp)",
                "dram(l+a)", "dram(cmp)", "core(cmp)");

    std::vector<double> d_l, d_a, d_c, c_c;
    for (const Row &row : rows) {
        Point base = energyOf(res.records[row.base], McKind::kUncompressed);
        Point lcp = energyOf(res.records[row.lcp], McKind::kLcp);
        Point lcpa = energyOf(res.records[row.lcpa], McKind::kLcpAlign);
        Point cmp = energyOf(res.records[row.cmp], McKind::kCompresso);

        double dl = lcp.energy.dram_nj / base.energy.dram_nj;
        double da = lcpa.energy.dram_nj / base.energy.dram_nj;
        double dc = (cmp.energy.dram_nj + cmp.energy.mc_nj) /
                    base.energy.dram_nj;
        double cc = cmp.energy.core_nj / base.energy.core_nj;

        std::printf("%-12s %10.2f %10.2f %10.2f %10.2f\n",
                    row.bench.c_str(), dl, da, dc, cc);
        d_l.push_back(dl);
        d_a.push_back(da);
        d_c.push_back(dc);
        c_c.push_back(cc);
    }
    std::printf("%-12s %10.2f %10.2f %10.2f %10.2f\n", "Average",
                mean(d_l), mean(d_a), mean(d_c), mean(c_c));
    std::printf("\nPaper: Compresso DRAM energy ~0.89x of uncompressed "
                "(11%% saving), better than LCP and LCP+Align;\n"
                "core energy ~1.0x.\n");
    return sink().finish();
}
