/**
 * @file
 * Perf-regression driver: runs a named suite of representative figure
 * configurations with the host profiler active and emits one
 * "compresso-bench-v1" JSON document (BENCH_<suite>.json by default).
 * Each bench records the simulated metrics (which must not move
 * between builds of equal code) next to host-side throughput, so
 * `tools/obs_report.py gate` can gate changes on simulator *speed*
 * and fail any simulated metric that moved.
 *
 * Usage:
 *   bench_runner [--suite quick|full] [--repeat N] [--out PATH] [--list]
 *                [shared RunSink flags: --jobs N, --campaign-json, ...]
 *
 * --repeat N runs every bench N times and reports the median host
 * metrics plus a spread ((max-min)/median) so noisy machines are
 * visible in the document itself. Every (bench, repeat) pair is one
 * campaign job; pass `--jobs 1` when the host-side numbers will be
 * compared against a baseline — parallel workers contend for cache
 * and memory bandwidth and inflate the spread.
 */

#include "bench_common.h"

#include <algorithm>
#include <fstream>

#include "common/json_writer.h"
#include "sim/runner.h"
#include "sim/schema_versions.h"

using namespace compresso;
using namespace compresso::bench;

namespace {

/** One named configuration of the regression suite. Budgets are per
 *  repeat; quick-suite entries are sized for CI (a few seconds total),
 *  full-suite entries for a workstation soak. */
struct BenchDef
{
    const char *name;
    McKind kind;
    std::vector<std::string> workloads;
    uint64_t refs_per_core;
    uint64_t warmup_refs;
};

std::vector<BenchDef>
suiteBenches(const std::string &suite)
{
    // The quick suite covers every controller kind once plus one
    // multicore mix: enough to exercise all CPR_PROF_SCOPE paths
    // (kernels, repack, overflow, metadata cache, DRAM) while staying
    // CI-sized.
    const std::vector<BenchDef> quick = {
        {"compresso/mcf", McKind::kCompresso, {"mcf"}, 60000, 6000},
        {"compresso/omnetpp", McKind::kCompresso, {"omnetpp"}, 60000, 6000},
        {"uncompressed/mcf", McKind::kUncompressed, {"mcf"}, 60000, 6000},
        {"lcp/mcf", McKind::kLcp, {"mcf"}, 60000, 6000},
        {"rmc/mcf", McKind::kRmc, {"mcf"}, 60000, 6000},
        {"compresso/4core-mix", McKind::kCompresso,
         {"mcf", "omnetpp", "libquantum", "gcc"}, 30000, 3000},
    };
    if (suite == "quick")
        return quick;
    if (suite == "full") {
        std::vector<BenchDef> full = quick;
        for (auto &b : full) {
            b.refs_per_core *= 5;
            b.warmup_refs *= 5;
        }
        full.push_back({"compresso/Pagerank", McKind::kCompresso,
                        {"Pagerank"}, 300000, 30000});
        full.push_back({"compresso/Graph500", McKind::kCompresso,
                        {"Graph500"}, 300000, 30000});
        full.push_back({"lcp+align/mcf", McKind::kLcpAlign, {"mcf"},
                        300000, 30000});
        full.push_back({"compresso/4core-graph", McKind::kCompresso,
                        {"Pagerank", "Graph500", "Forestfire", "mcf"},
                        150000, 15000});
        return full;
    }
    return {};
}

/** Host-side metric summarized over repeats. */
struct Summary
{
    double median = 0;
    double spread = 0; ///< (max - min) / median; 0 for a single repeat
};

Summary
summarize(std::vector<double> xs)
{
    Summary s;
    if (xs.empty())
        return s;
    std::sort(xs.begin(), xs.end());
    size_t n = xs.size();
    s.median = n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
    if (s.median > 0)
        s.spread = (xs.back() - xs.front()) / s.median;
    return s;
}

struct BenchOutcome
{
    BenchDef def;
    RunResult first; ///< simulated metrics (identical across repeats)
    Summary wall_ns;
    Summary host_ns_per_ref;
    Summary refs_per_host_sec;
};

void
writeSummary(JsonWriter &w, const char *key, const Summary &s)
{
    w.key(key).beginObject();
    w.field("median", s.median);
    w.field("spread", s.spread);
    w.endObject();
}

void
writeBenchDoc(std::ostream &os, const std::string &suite, unsigned repeat,
              unsigned pool_jobs, const std::vector<BenchOutcome> &outcomes)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", kBenchJsonSchema);
    w.field("tool", "bench_runner");
    w.field("suite", suite);
    w.field("repeat", uint64_t(repeat));
    w.field("pool_jobs", uint64_t(pool_jobs));
    w.key("environment");
    writeEnvironmentJson(w);
    w.key("benches").beginObject();
    for (const BenchOutcome &o : outcomes) {
        w.key(o.def.name).beginObject();
        w.field("kind", mcKindName(o.def.kind));
        w.key("workloads").beginArray();
        for (const std::string &wl : o.def.workloads)
            w.value(wl);
        w.endArray();
        w.field("refs_per_core", o.def.refs_per_core);
        w.key("simulated").beginObject();
        w.field("perf", o.first.perf);
        w.field("comp_ratio", o.first.comp_ratio);
        w.field("effective_ratio", o.first.effective_ratio);
        w.field("extra_total", o.first.extra_total);
        w.field("md_hit_rate", o.first.md_hit_rate);
        w.endObject();
        w.key("host").beginObject();
        writeSummary(w, "wall_ns", o.wall_ns);
        writeSummary(w, "host_ns_per_ref", o.host_ns_per_ref);
        writeSummary(w, "refs_per_host_sec", o.refs_per_host_sec);
        w.endObject();
        w.endObject();
    }
    w.endObject();
    w.endObject();
    os << "\n";
}

constexpr const char *kOwnUsage =
    "bench_runner options:\n"
    "  --suite quick|full     which regression suite to run\n"
    "  --repeat N             repeats per bench (median + spread)\n"
    "  --out PATH             bench document path (BENCH_<suite>.json)\n"
    "  --list                 print the suite's bench names and exit\n";

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--suite quick|full] [--repeat N] "
                 "[--out PATH] [--list] [--jobs N] [--json PATH] "
                 "[--campaign-json PATH]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    sink().init(argc, argv, "bench_runner", kOwnUsage);

    std::string suite = "quick";
    std::string out_path;
    unsigned repeat = 1;
    bool list_only = false;
    const std::vector<std::string> &extra = sink().extraArgs();
    for (size_t i = 0; i < extra.size(); ++i) {
        const std::string &a = extra[i];
        if (a == "--suite" && i + 1 < extra.size()) {
            suite = extra[++i];
        } else if (a == "--repeat" && i + 1 < extra.size()) {
            long n = std::atol(extra[++i].c_str());
            if (n < 1)
                return usage(argv[0]);
            repeat = unsigned(n);
        } else if (a == "--out" && i + 1 < extra.size()) {
            out_path = extra[++i];
        } else if (a == "--list") {
            list_only = true;
        } else {
            return usage(argv[0]);
        }
    }

    std::vector<BenchDef> defs = suiteBenches(suite);
    if (defs.empty()) {
        std::fprintf(stderr, "unknown suite: %s\n", suite.c_str());
        return usage(argv[0]);
    }
    if (list_only) {
        for (const BenchDef &d : defs)
            std::printf("%s\n", d.name);
        return 0;
    }
    if (out_path.empty())
        out_path = "BENCH_" + suite + ".json";

    // Each (bench, repeat) pair is one campaign job. Repeats of the
    // same bench carry a "#rN" suffix; the reducer below groups them
    // back into one outcome per bench.
    Campaign campaign("bench_" + suite);
    for (const BenchDef &d : defs) {
        for (unsigned r = 0; r < repeat; ++r) {
            RunSpec spec;
            spec.kind = d.kind;
            spec.workloads = d.workloads;
            spec.refs_per_core = d.refs_per_core;
            spec.warmup_refs = d.warmup_refs;
            spec.prof.enabled = true;
            std::string label = d.name;
            if (repeat > 1)
                label += "#r" + std::to_string(r);
            addRun(campaign, std::move(label), std::move(spec));
        }
    }
    CampaignResult res = runCampaign(campaign);
    if (!res.allOk())
        return 1;

    header(("perf suite '" + suite + "'").c_str());
    std::printf("%-22s | %7s %6s | %10s %10s %7s\n", "bench", "IPC",
                "ratio", "ns/ref", "Mref/s", "spread");

    std::vector<BenchOutcome> outcomes;
    for (size_t d = 0; d < defs.size(); ++d) {
        BenchOutcome o;
        o.def = defs[d];
        std::vector<double> wall, ns_per_ref, refs_per_sec;
        for (unsigned r = 0; r < repeat; ++r) {
            const RunResult &run =
                res.records[uint32_t(d) * repeat + r].run();
            if (r == 0)
                o.first = run;
            wall.push_back(double(run.prof.wall_ns));
            ns_per_ref.push_back(run.prof.host_ns_per_ref);
            refs_per_sec.push_back(run.prof.refs_per_host_sec);
        }
        o.wall_ns = summarize(wall);
        o.host_ns_per_ref = summarize(ns_per_ref);
        o.refs_per_host_sec = summarize(refs_per_sec);
        std::printf("%-22s | %7.3f %6.2f | %10.1f %10.2f %6.1f%%\n",
                    o.def.name, o.first.perf, o.first.comp_ratio,
                    o.host_ns_per_ref.median,
                    o.refs_per_host_sec.median / 1e6,
                    100 * o.host_ns_per_ref.spread);
        outcomes.push_back(std::move(o));
    }

    std::ofstream os(out_path);
    if (!os) {
        std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
        return 1;
    }
    writeBenchDoc(os, suite, repeat, res.pool_jobs, outcomes);
    std::printf("\nwrote %s (%u repeat%s per bench, %u worker%s)\n",
                out_path.c_str(), repeat, repeat == 1 ? "" : "s",
                res.pool_jobs, res.pool_jobs == 1 ? "" : "s");
    int json_rc = sink().finish();
    return json_rc;
}
