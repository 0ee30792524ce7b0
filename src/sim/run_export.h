/**
 * @file
 * Machine-readable experiment export: serializes RunResults into a
 * versioned JSON document ("compresso-run-v3") so figures can be
 * regenerated and runs diffed without re-simulating. tools/obs_report.py
 * reads this format, current generation only. v2 added the per-result
 * `host_profile` object (src/prof digest); v3 adds `latency_breakdown`:
 * the simulated-cycle attribution (DESIGN.md §15) with per-component
 * cycles, percentiles and tail exemplars.
 *
 * Also provides RunSink, the tiny CLI shim every bench/example binary
 * uses to gain `--json <path>` (plus the observability opt-in flags)
 * without each main() growing its own argv parser.
 */

#ifndef COMPRESSO_SIM_RUN_EXPORT_H
#define COMPRESSO_SIM_RUN_EXPORT_H

#include <ostream>
#include <string>
#include <vector>

#include "sim/runner.h"
#include "sim/schema_versions.h"

namespace compresso {

class JsonWriter;

/** Write {schema, tool, results: [...]} to @p os. Key order is fixed
 *  and StatGroup counters iterate sorted, so output is deterministic
 *  for identical inputs (golden-file friendly). */
void writeRunsJson(std::ostream &os, const std::string &tool,
                   const std::vector<RunResult> &results);

/** Path-taking overload; returns false on I/O failure. */
bool writeRunsJson(const std::string &path, const std::string &tool,
                   const std::vector<RunResult> &results);

/** Write one RunResult as a `results[]` object (shared with the
 *  campaign exporter, which embeds the same shape per job). */
void writeRunResultJson(JsonWriter &w, const RunResult &r);

/** Write the environment stamp object (compiler, build type, gate
 *  macros, pointer width, hardware concurrency): enough to tell two
 *  documents measured on different builds apart before comparing
 *  numbers. Shared by bench_runner and the campaign exporter. */
void writeEnvironmentJson(JsonWriter &w);

/** Write one AttribSnapshot as the run-v3 `latency_breakdown` object
 *  (fixed taxonomy order, then tail exemplars). Shared with the
 *  post-mortem exporter so bundles and run documents agree on shape. */
void writeLatencyBreakdownJson(JsonWriter &w, const AttribSnapshot &a);

/**
 * Per-binary collector behind the shared CLI flags:
 *
 *   --json <path>       write every recorded RunResult as run JSON
 *   --jobs <N>          worker threads for campaign-engine binaries
 *                       (default: hardware concurrency; 1 = today's
 *                       serial path). COMPRESSO_JOBS=<N> is the env
 *                       equivalent; the flag wins when both are set.
 *   --campaign-json <path>
 *                       write the merged compresso-campaign-v2
 *                       document (campaign-engine binaries only)
 *   --obs               attach the Observer to each run (digest lands
 *                       in the JSON `obs` object)
 *   --prof              activate the host profiler (src/prof) for
 *                       each run; the digest lands in the JSON
 *                       `host_profile` object
 *   --obs-trace <path>  Chrome trace-event export (implies --obs;
 *                       first recorded run only, so repeated runs do
 *                       not clobber the file)
 *   --obs-csv <path>    epoch time-series CSV (implies --obs; first
 *                       recorded run only)
 *   --postmortem <dir>  write every anomaly post-mortem bundle the
 *                       recorded runs captured into <dir>, one
 *                       compresso-postmortem-v1 document per bundle
 *                       (implies --obs)
 *   --help              print the shared flags (plus the binary's own
 *                       usage line, when it registered one) and exit
 *
 * Usage in a main(): init(argc, argv, tool), route each simulation
 * through run() (or apply() + add() when the call site owns the
 * runSystem call), and `return finish();`.
 */
class RunSink
{
  public:
    /** Parse the flags above out of argv; unknown arguments are left
     *  for the binary's own parsing and reported via extraArgs().
     *  @p extra_usage, when non-null, is the binary's own usage block,
     *  printed ahead of the shared flags on --help. Seeing --help
     *  prints the usage and exits 0. */
    void init(int argc, char **argv, const std::string &tool,
              const char *extra_usage = nullptr);

    /** Stamp the CLI-selected observability onto a spec about to run. */
    void apply(RunSpec &spec);

    /** Record a finished result for the final JSON document. */
    void add(const RunResult &r) { results_.push_back(r); }

    /** apply() + runSystem() + add(), the common path. */
    RunResult run(RunSpec spec);

    /** Write the JSON document if --json was given. Returns the
     *  process exit code (1 on export I/O failure). */
    int finish();

    const std::vector<RunResult> &results() const { return results_; }
    /** argv entries init() did not consume (argv[0] excluded). */
    const std::vector<std::string> &extraArgs() const { return extra_; }
    bool obsRequested() const { return obs_; }
    bool profRequested() const { return prof_; }
    const std::string &tool() const { return tool_; }

    /** Resolved worker count for campaign runs: the --jobs flag, else
     *  COMPRESSO_JOBS, else hardware concurrency; never 0. */
    unsigned jobs() const;

    /** Destination for the merged campaign document ("" = none). */
    const std::string &campaignJsonPath() const { return campaign_path_; }

    // Parsed export destinations ("" = not requested). Exposed so the
    // CLI-matrix test can assert every tool resolves the shared flags
    // identically without touching the filesystem.
    const std::string &jsonPath() const { return json_path_; }
    const std::string &tracePath() const { return trace_path_; }
    const std::string &csvPath() const { return csv_path_; }
    const std::string &postmortemDir() const { return postmortem_dir_; }

  private:
    std::string tool_;
    std::string json_path_;
    std::string campaign_path_;
    std::string trace_path_;
    std::string csv_path_;
    std::string postmortem_dir_;
    unsigned jobs_flag_ = 0; ///< 0 = not given on the command line
    bool obs_ = false;
    bool prof_ = false;
    /** Export paths are handed to exactly one run. */
    bool exports_taken_ = false;
    std::vector<RunResult> results_;
    std::vector<std::string> extra_;
};

} // namespace compresso

#endif // COMPRESSO_SIM_RUN_EXPORT_H
