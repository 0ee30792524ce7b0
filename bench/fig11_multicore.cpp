/**
 * @file
 * Fig. 11: 4-core evaluation over the Tab. IV mixes.
 *
 * Paper's reported shape: cycle-based geomeans Compresso 0.975,
 * LCP 0.90, LCP+Align 0.95; memory-capacity (70%) Compresso 2.33 vs
 * LCP 1.97 vs unconstrained 2.51; overall Compresso 2.27 vs LCP 1.78
 * (27.5% advantage). Mix10 (three metadata thrashers) is the worst
 * case for compression overhead; Mix1 benefits despite containing mcf.
 */

#include "bench_common.h"

#include "capacity/capacity_eval.h"
#include "sim/runner.h"
#include "workloads/mixes.h"

using namespace compresso;
using namespace compresso::bench;

namespace {

std::vector<std::string>
benchList(const WorkloadMix &mix)
{
    return {mix.benchmarks.begin(), mix.benchmarks.end()};
}

uint32_t
addCycleJob(Campaign &campaign, McKind kind, const WorkloadMix &mix)
{
    RunSpec spec;
    spec.kind = kind;
    spec.workloads = benchList(mix);
    spec.refs_per_core = budget(60000);
    spec.warmup_refs = budget(8000);
    return addRun(campaign, mix.name + "/" + mcKindName(kind),
                  std::move(spec));
}

uint32_t
addCapJob(Campaign &campaign, McKind kind, bool unconstrained,
          const WorkloadMix &mix)
{
    std::vector<std::string> workloads = benchList(mix);
    std::string label = mix.name + "/cap/" +
                        (unconstrained ? "unconstrained"
                                       : mcKindName(kind));
    return campaign.add(label, [=](uint64_t) {
        CapacitySpec spec;
        spec.workloads = workloads;
        spec.kind = kind;
        spec.unconstrained = unconstrained;
        spec.mem_frac = 0.7;
        spec.touches_per_core = budget(60000);
        JobPayload payload;
        payload.values["speedup"] = capacitySpeedup(spec);
        return payload;
    });
}

double
speedup(const CampaignResult &res, uint32_t idx)
{
    return res.records[idx].payload.values.at("speedup");
}

} // namespace

int
main(int argc, char **argv)
{
    sink().init(argc, argv, "fig11_multicore");

    // 7 independent jobs per mix (4 cycle runs + 3 capacity evals),
    // sharded across --jobs.
    struct Row
    {
        std::string mix;
        uint32_t base, lcp, lcpa, cmp;
        uint32_t cap_lcp, cap_cmp, cap_un;
    };
    Campaign campaign("fig11_multicore");
    std::vector<Row> rows;
    for (const auto &mix : allMixes()) {
        Row row;
        row.mix = mix.name;
        row.base = addCycleJob(campaign, McKind::kUncompressed, mix);
        row.lcp = addCycleJob(campaign, McKind::kLcp, mix);
        row.lcpa = addCycleJob(campaign, McKind::kLcpAlign, mix);
        row.cmp = addCycleJob(campaign, McKind::kCompresso, mix);
        row.cap_lcp = addCapJob(campaign, McKind::kLcp, false, mix);
        row.cap_cmp = addCapJob(campaign, McKind::kCompresso, false, mix);
        row.cap_un =
            addCapJob(campaign, McKind::kUncompressed, true, mix);
        rows.push_back(std::move(row));
    }
    CampaignResult res = runCampaign(campaign);
    if (!res.allOk())
        return 1;

    header("Fig. 11a/11b: 4-core mixes (70% memory)");
    std::printf("%-7s | %6s %6s %6s | %6s %6s %6s | %6s %6s %6s %6s\n",
                "", "cycle", "cycle", "cycle", "cap", "cap", "cap",
                "ovrl", "ovrl", "ovrl", "ovrl");
    std::printf("%-7s | %6s %6s %6s | %6s %6s %6s | %6s %6s %6s %6s\n",
                "mix", "lcp", "lcp+a", "cmprso", "lcp", "cmprso",
                "unconst", "lcp", "lcp+a", "cmprso", "unconst");

    std::vector<double> cy_l, cy_a, cy_c;
    std::vector<double> cp_l, cp_c, cp_u;
    std::vector<double> ov_l, ov_a, ov_c, ov_u;

    for (const Row &row : rows) {
        double base = res.records[row.base].run().perf;
        double lcp = res.records[row.lcp].run().perf / base;
        double lcpa = res.records[row.lcpa].run().perf / base;
        double cmp = res.records[row.cmp].run().perf / base;

        double cap_lcp = speedup(res, row.cap_lcp);
        double cap_cmp = speedup(res, row.cap_cmp);
        double cap_un = speedup(res, row.cap_un);

        double o_l = lcp * cap_lcp, o_a = lcpa * cap_lcp;
        double o_c = cmp * cap_cmp, o_u = cap_un;

        std::printf("%-7s | %6.3f %6.3f %6.3f | %6.2f %6.2f %6.2f | "
                    "%6.2f %6.2f %6.2f %6.2f\n",
                    row.mix.c_str(), lcp, lcpa, cmp, cap_lcp, cap_cmp,
                    cap_un, o_l, o_a, o_c, o_u);

        cy_l.push_back(lcp);
        cy_a.push_back(lcpa);
        cy_c.push_back(cmp);
        cp_l.push_back(cap_lcp);
        cp_c.push_back(cap_cmp);
        cp_u.push_back(cap_un);
        ov_l.push_back(o_l);
        ov_a.push_back(o_a);
        ov_c.push_back(o_c);
        ov_u.push_back(o_u);
    }

    std::printf("\nCycle-based geomean:   lcp %.3f  lcp+align %.3f  "
                "compresso %.3f   (paper 0.90 / 0.95 / 0.975)\n",
                geomean(cy_l), geomean(cy_a), geomean(cy_c));
    std::printf("Mem-capacity geomean:  lcp %.2f  compresso %.2f  "
                "unconstrained %.2f   (paper 1.97 / 2.33 / 2.51)\n",
                geomean(cp_l), geomean(cp_c), geomean(cp_u));
    std::printf("Overall geomean:       lcp %.2f  lcp+align %.2f  "
                "compresso %.2f  unconstrained %.2f   "
                "(paper 1.78 / 1.9 / 2.27 / 2.51)\n",
                geomean(ov_l), geomean(ov_a), geomean(ov_c),
                geomean(ov_u));
    std::printf("Compresso over LCP: %.1f%%   (paper 27.5%%)\n",
                100 * (geomean(ov_c) / geomean(ov_l) - 1.0));
    return sink().finish();
}
