#include "sim/run_export.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "common/json_writer.h"
#include "sim/postmortem_export.h"

namespace compresso {

namespace {

void
writeStatGroup(JsonWriter &w, const StatGroup &g)
{
    w.beginObject();
    for (const auto &[name, val] : g.counters())
        w.field(name, val);
    w.endObject();
}

void
writeObs(JsonWriter &w, const ObsSnapshot &obs)
{
    w.beginObject();
    w.field("enabled", obs.enabled);
    w.field("events_total", obs.events_total);
    w.field("events_dropped", obs.events_dropped);
    w.key("event_counts").beginObject();
    for (const auto &[name, n] : obs.event_counts)
        w.field(name, n);
    w.endObject();
    w.key("histograms").beginObject();
    for (const auto &[name, h] : obs.histograms) {
        w.key(name).beginObject();
        w.field("count", h.count);
        w.field("sum", h.sum);
        w.field("min", h.min);
        w.field("max", h.max);
        w.field("mean", h.mean);
        w.field("p50", h.p50);
        w.field("p90", h.p90);
        w.field("p99", h.p99);
        w.endObject();
    }
    w.endObject();
    w.endObject();
}

void
writeHostProfile(JsonWriter &w, const ProfSnapshot &prof)
{
    w.beginObject();
    w.field("enabled", prof.enabled);
    w.field("threads", prof.threads);
    w.field("wall_ns", prof.wall_ns);
    w.field("sim_refs", prof.sim_refs);
    w.field("refs_per_host_sec", prof.refs_per_host_sec);
    w.field("host_ns_per_ref", prof.host_ns_per_ref);
    w.key("phases").beginObject();
    for (const auto &[name, p] : prof.phases) {
        w.key(name).beginObject();
        w.field("calls", p.calls);
        w.field("incl_ns", p.incl_ns);
        w.field("excl_ns", p.excl_ns);
        w.endObject();
    }
    w.endObject();
    w.endObject();
}

} // namespace

void
writeLatencyBreakdownJson(JsonWriter &w, const AttribSnapshot &a)
{
    w.beginObject();
    w.field("enabled", a.enabled);
    w.field("refs", a.refs);
    w.field("total_cycles", a.total_cycles);
    w.field("conservation_failures", a.conservation_failures);
    // Fixed taxonomy order (not alphabetical): columns line up across
    // documents from any build.
    w.key("components").beginObject();
    for (size_t c = 0; c < kAttribComps; ++c) {
        const AttribSnapshot::CompSummary &s = a.comps[c];
        w.key(attribCompName(AttribComp(c))).beginObject();
        w.field("cycles", s.cycles);
        w.field("background_cycles", s.background_cycles);
        w.field("count", s.count);
        w.field("max", s.max);
        w.field("p50", s.p50);
        w.field("p90", s.p90);
        w.field("p99", s.p99);
        w.endObject();
    }
    w.endObject();
    w.key("exemplars").beginArray();
    for (const AttribExemplar &e : a.exemplars) {
        w.beginObject();
        w.field("addr", e.addr);
        w.field("ref_index", e.ref_index);
        w.field("total", e.total);
        w.key("components").beginObject();
        for (size_t c = 0; c < kAttribComps; ++c) {
            if (e.comp[c] > 0)
                w.field(attribCompName(AttribComp(c)), e.comp[c]);
        }
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
writeRunResultJson(JsonWriter &w, const RunResult &r)
{
    w.beginObject();
    w.field("label", r.label);
    w.field("cycles", r.cycles);
    w.field("insts", r.insts);
    w.field("perf", r.perf);
    w.field("comp_ratio", r.comp_ratio);
    w.field("effective_ratio", r.effective_ratio);
    w.field("extra_split", r.extra_split);
    w.field("extra_overflow", r.extra_overflow);
    w.field("extra_repack", r.extra_repack);
    w.field("extra_metadata", r.extra_metadata);
    w.field("extra_total", r.extra_total);
    w.field("md_hit_rate", r.md_hit_rate);
    w.field("zero_access_frac", r.zero_access_frac);
    w.field("audit_violations", r.audit_violations);
    w.key("mc_stats");
    writeStatGroup(w, r.mc_stats);
    w.key("dram_stats");
    writeStatGroup(w, r.dram_stats);
    w.key("obs");
    writeObs(w, r.obs);
    w.key("host_profile");
    writeHostProfile(w, r.prof);
    w.key("latency_breakdown");
    writeLatencyBreakdownJson(w, r.attrib);
    w.endObject();
}

void
writeEnvironmentJson(JsonWriter &w)
{
    w.beginObject();
    w.field("compiler", __VERSION__);
#ifdef NDEBUG
    w.field("build_type", "release");
#else
    w.field("build_type", "debug");
#endif
#ifdef COMPRESSO_OBS_DISABLED
    w.field("obs_disabled", true);
#else
    w.field("obs_disabled", false);
#endif
#ifdef COMPRESSO_PROF_DISABLED
    w.field("prof_disabled", true);
#else
    w.field("prof_disabled", false);
#endif
    w.field("pointer_bytes", uint64_t(sizeof(void *)));
    w.field("hardware_concurrency",
            uint64_t(std::thread::hardware_concurrency()));
    // Which CMake preset produced this binary (stamped by the build;
    // "unknown" for by-hand cmake invocations). `tools/obs_report.py
    // gate` warns when baseline and candidate presets disagree.
#ifdef COMPRESSO_PRESET_NAME
    w.field("preset", COMPRESSO_PRESET_NAME);
#else
    w.field("preset", "unknown");
#endif
    w.endObject();
}

void
writeRunsJson(std::ostream &os, const std::string &tool,
              const std::vector<RunResult> &results)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", kRunJsonSchema);
    w.field("tool", tool);
    w.key("results").beginArray();
    for (const RunResult &r : results)
        writeRunResultJson(w, r);
    w.endArray();
    w.endObject();
    os << "\n";
}

bool
writeRunsJson(const std::string &path, const std::string &tool,
              const std::vector<RunResult> &results)
{
    std::ofstream os(path);
    if (!os)
        return false;
    writeRunsJson(os, tool, results);
    return bool(os);
}

namespace {

void
printSharedUsage(const char *argv0, const char *extra_usage)
{
    std::fprintf(stderr, "usage: %s [options]\n", argv0);
    if (extra_usage != nullptr)
        std::fprintf(stderr, "%s", extra_usage);
    std::fprintf(
        stderr,
        "shared options:\n"
        "  --json <path>          write run results as %s JSON\n"
        "  --jobs <N>             campaign worker threads (default:\n"
        "                         hardware concurrency; 1 = serial;\n"
        "                         env: COMPRESSO_JOBS)\n"
        "  --campaign-json <path> write the merged campaign document\n"
        "  --obs                  attach the observability layer\n"
        "  --prof                 activate the host profiler\n"
        "  --obs-trace <path>     Chrome trace export (implies --obs)\n"
        "  --obs-csv <path>       epoch time-series CSV (implies --obs)\n"
        "  --postmortem <dir>     write anomaly post-mortem bundles\n"
        "                         into <dir> (implies --obs)\n"
        "  --help                 print this and exit\n",
        kRunJsonSchema);
}

} // namespace

void
RunSink::init(int argc, char **argv, const std::string &tool,
              const char *extra_usage)
{
    tool_ = tool;
    auto take = [&](int &i) -> const char * {
        return i + 1 < argc ? argv[++i] : nullptr;
    };
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--json") {
            if (const char *v = take(i))
                json_path_ = v;
        } else if (a == "--jobs") {
            if (const char *v = take(i)) {
                long n = std::strtol(v, nullptr, 10);
                jobs_flag_ = n > 0 ? unsigned(n) : 1;
            }
        } else if (a == "--campaign-json") {
            if (const char *v = take(i))
                campaign_path_ = v;
        } else if (a == "--obs") {
            obs_ = true;
        } else if (a == "--prof") {
            prof_ = true;
        } else if (a == "--obs-trace") {
            if (const char *v = take(i)) {
                trace_path_ = v;
                obs_ = true;
            }
        } else if (a == "--obs-csv") {
            if (const char *v = take(i)) {
                csv_path_ = v;
                obs_ = true;
            }
        } else if (a == "--postmortem") {
            if (const char *v = take(i)) {
                postmortem_dir_ = v;
                obs_ = true;
            }
        } else if (a == "--help" || a == "-h") {
            printSharedUsage(argc > 0 ? argv[0] : "?", extra_usage);
            std::exit(0);
        } else {
            extra_.push_back(a);
        }
    }
}

unsigned
RunSink::jobs() const
{
    if (jobs_flag_ > 0)
        return jobs_flag_;
    // Read on the driver thread before any workers launch, so the
    // getenv cannot race a concurrent setenv in this process.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    if (const char *env = std::getenv("COMPRESSO_JOBS")) {
        long n = std::strtol(env, nullptr, 10);
        if (n > 0)
            return unsigned(n);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

void
RunSink::apply(RunSpec &spec)
{
    if (prof_)
        spec.prof.enabled = true;
    if (!obs_)
        return;
    spec.obs.enabled = true;
    // A requested time series needs a sampling period; default to 32
    // epochs over the run when the spec didn't choose one.
    if (!csv_path_.empty() && spec.obs.epoch_refs == 0)
        spec.obs.epoch_refs = std::max<uint64_t>(spec.refs_per_core / 32, 1);
    if (!exports_taken_) {
        spec.obs_trace_path = trace_path_;
        spec.obs_epoch_csv_path = csv_path_;
        exports_taken_ = true;
    }
}

RunResult
RunSink::run(RunSpec spec)
{
    apply(spec);
    RunResult r = runSystem(spec);
    add(r);
    return r;
}

int
RunSink::finish()
{
    if (!postmortem_dir_.empty()) {
        // One running index across every recorded run, so a campaign's
        // bundles land side by side without clobbering each other.
        size_t next = 0;
        for (const RunResult &r : results_) {
            int n = writePostmortemBundles(postmortem_dir_, tool_,
                                           "postmortem-", r.postmortems,
                                           next);
            if (n < 0) {
                std::fprintf(stderr,
                             "error: cannot write post-mortem bundles "
                             "under %s\n",
                             postmortem_dir_.c_str());
                return 1;
            }
            next += size_t(n);
        }
    }
    if (json_path_.empty())
        return 0;
    if (!writeRunsJson(json_path_, tool_, results_)) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     json_path_.c_str());
        return 1;
    }
    return 0;
}

} // namespace compresso
