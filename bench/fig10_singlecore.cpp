/**
 * @file
 * Fig. 10 (+ part of Tab. II): single-core evaluation.
 *
 *  (a) Cycle-based relative performance (compression overheads and
 *      bandwidth benefits only). Paper geomeans: LCP 0.938,
 *      LCP+Align 0.961, Compresso 0.998.
 *  (a) Memory-capacity impact at 70% constrained memory. Paper:
 *      LCP 1.11, Compresso 1.29, unconstrained 1.39.
 *  (b) Overall = cycle x capacity (mcf/GemsFDTD/lbm excluded: they
 *      thrash when constrained). Paper: LCP 1.03, LCP+Align 1.06,
 *      Compresso 1.28 => Compresso outperforms LCP by 24.2%.
 */

#include "bench_common.h"

#include "capacity/capacity_eval.h"
#include "sim/runner.h"

using namespace compresso;
using namespace compresso::bench;

namespace {

uint32_t
addCycleJob(Campaign &campaign, McKind kind, const std::string &bench)
{
    RunSpec spec;
    spec.kind = kind;
    spec.workloads = {bench};
    spec.refs_per_core = budget(150000);
    spec.warmup_refs = budget(15000);
    return addRun(campaign, bench + "/" + mcKindName(kind),
                  std::move(spec));
}

uint32_t
addCapJob(Campaign &campaign, McKind kind, bool unconstrained,
          const std::string &bench)
{
    std::string label = bench + "/cap/" +
                        (unconstrained ? "unconstrained"
                                       : mcKindName(kind));
    return campaign.add(label, [=](uint64_t) {
        CapacitySpec spec;
        spec.workloads = {bench};
        spec.kind = kind;
        spec.unconstrained = unconstrained;
        spec.mem_frac = 0.7;
        spec.touches_per_core = budget(120000);
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
    sink().init(argc, argv, "fig10_singlecore");

    // Queue the per-benchmark cycle runs and capacity evaluations as
    // one campaign (7 independent jobs per benchmark) and shard it
    // across --jobs.
    struct Row
    {
        std::string bench;
        bool excluded;
        uint32_t base, lcp, lcpa, cmp;       // cycle runs
        uint32_t cap_lcp, cap_cmp, cap_un;   // capacity evals
    };
    Campaign campaign("fig10_singlecore");
    std::vector<Row> rows;
    for (const auto &prof : allProfiles()) {
        if (prof.name == "zeusmp")
            continue; // the paper's Fig. 10a also omits zeusmp
        Row row;
        row.bench = prof.name;
        row.excluded = prof.stalls_when_constrained;
        row.base = addCycleJob(campaign, McKind::kUncompressed, prof.name);
        row.lcp = addCycleJob(campaign, McKind::kLcp, prof.name);
        row.lcpa = addCycleJob(campaign, McKind::kLcpAlign, prof.name);
        row.cmp = addCycleJob(campaign, McKind::kCompresso, prof.name);
        row.cap_lcp = addCapJob(campaign, McKind::kLcp, false, prof.name);
        row.cap_cmp =
            addCapJob(campaign, McKind::kCompresso, false, prof.name);
        row.cap_un =
            addCapJob(campaign, McKind::kUncompressed, true, prof.name);
        rows.push_back(std::move(row));
    }
    CampaignResult res = runCampaign(campaign);
    if (!res.allOk())
        return 1;

    header("Fig. 10a/10b: single-core performance (70% memory)");
    std::printf("%-12s | %6s %6s %6s | %6s %6s %6s | %6s %6s %6s %6s\n",
                "", "cycle", "cycle", "cycle", "cap", "cap", "cap",
                "ovrl", "ovrl", "ovrl", "ovrl");
    std::printf("%-12s | %6s %6s %6s | %6s %6s %6s | %6s %6s %6s %6s\n",
                "benchmark", "lcp", "lcp+a", "cmprso", "lcp", "cmprso",
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

        double o_l = lcp * cap_lcp;
        double o_a = lcpa * cap_lcp;
        double o_c = cmp * cap_cmp;
        double o_u = cap_un;

        std::printf("%-12s | %6.3f %6.3f %6.3f | %6.2f %6.2f %6.2f | "
                    "%6.2f %6.2f %6.2f %6.2f%s\n",
                    row.bench.c_str(), lcp, lcpa, cmp, cap_lcp, cap_cmp,
                    cap_un, o_l, o_a, o_c, o_u,
                    row.excluded ? "  (excluded from 10b)" : "");

        cy_l.push_back(lcp);
        cy_a.push_back(lcpa);
        cy_c.push_back(cmp);
        if (!row.excluded) {
            cp_l.push_back(cap_lcp);
            cp_c.push_back(cap_cmp);
            cp_u.push_back(cap_un);
            ov_l.push_back(o_l);
            ov_a.push_back(o_a);
            ov_c.push_back(o_c);
            ov_u.push_back(o_u);
        }
    }

    std::printf("\nCycle-based geomean:   lcp %.3f  lcp+align %.3f  "
                "compresso %.3f   (paper 0.938 / 0.961 / 0.998)\n",
                geomean(cy_l), geomean(cy_a), geomean(cy_c));
    std::printf("Mem-capacity geomean:  lcp %.2f  compresso %.2f  "
                "unconstrained %.2f   (paper 1.11 / 1.29 / 1.39)\n",
                geomean(cp_l), geomean(cp_c), geomean(cp_u));
    std::printf("Overall geomean:       lcp %.2f  lcp+align %.2f  "
                "compresso %.2f  unconstrained %.2f   "
                "(paper 1.03 / 1.06 / 1.28 / 1.39)\n",
                geomean(ov_l), geomean(ov_a), geomean(ov_c),
                geomean(ov_u));
    std::printf("Compresso over LCP: %.1f%%   (paper 24.2%%)\n",
                100 * (geomean(ov_c) / geomean(ov_l) - 1.0));
    return sink().finish();
}
