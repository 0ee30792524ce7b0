/**
 * @file
 * Parallel campaign engine: shard a declarative sweep of independent
 * simulations across a work-stealing thread pool and merge the
 * telemetry (DESIGN.md §12).
 *
 * A Campaign is an ordered list of jobs. A job is either
 *  - a RunSpec, executed through runSystem() in its own isolated
 *    System instance, or
 *  - a custom function (capacity evaluations, compresspoint sweeps —
 *    anything shaped "pure inputs -> scalar outputs").
 *
 * Determinism: every job's simulated metrics depend only on its spec
 * and seed, never on scheduling, so `--jobs 1` and `--jobs N` produce
 * bit-identical per-job results (host-timing fields excepted). The
 * engine derives a per-job RNG stream seed via
 * Rng::combine(campaign_seed, job_index) and hands it to custom jobs;
 * RunSpec jobs keep their own spec.seed, so the reproduced figures do
 * not move.
 *
 * Failure policy: every job runs exactly once. Jobs are deterministic,
 * so a rerun would only repeat the failure: a job that throws is
 * recorded as failed with its what(), the campaign still completes,
 * and the caller decides (via allOk()) whether that is fatal.
 */

#ifndef COMPRESSO_EXEC_CAMPAIGN_H
#define COMPRESSO_EXEC_CAMPAIGN_H

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "exec/progress.h"
#include "obs/attrib.h"
#include "sim/runner.h"

namespace compresso {

enum class JobStatus
{
    kOk,
    kFailed, ///< the job threw
};

const char *jobStatusName(JobStatus status);

/** What a job produces. Run jobs fill `run`; custom jobs fill
 *  `values` (named scalars that land in the campaign document). */
struct JobPayload
{
    bool has_run = false;
    RunResult run;
    std::map<std::string, double> values;
};

/** A custom job. Its argument is the job's derived stream seed,
 *  Rng::combine(campaign_seed, index). */
using JobFn = std::function<JobPayload(uint64_t seed)>;

/** One finished job, in submission order. */
struct JobRecord
{
    std::string label;
    uint32_t index = 0;
    JobStatus status = JobStatus::kFailed;
    uint64_t seed = 0;    ///< the derived per-job stream seed
    uint64_t host_ns = 0; ///< wall time of the job
    std::string error;    ///< what() of the failure, if any
    JobPayload payload;

    bool ok() const { return status == JobStatus::kOk; }
    const RunResult &run() const { return payload.run; }
};

struct CampaignPolicy
{
    /** Worker threads; 0 = ThreadPool::hardwareJobs(). `jobs == 1`
     *  runs inline on the calling thread — today's serial path. */
    unsigned jobs = 0;
    ProgressMode progress = ProgressMode::kAuto;
};

struct CampaignResult
{
    std::string name;
    uint64_t campaign_seed = 0;
    unsigned pool_jobs = 0; ///< resolved worker count
    uint64_t wall_ns = 0;   ///< whole-campaign host wall time
    uint64_t steals = 0;    ///< thread-pool steal count (0 when serial)
    std::vector<JobRecord> records; ///< submission order, always full

    /** Cross-job telemetry, merged per memory-controller kind over
     *  the ok run-jobs (custom jobs have no StatGroups to merge). */
    struct Aggregate
    {
        uint64_t jobs = 0;
        uint64_t host_ns = 0;
        /** Same-kind jobs that still disagreed on counter keys (a
         *  rare-path counter fired in one job only); such groups fall
         *  back to a plain union merge and are counted here. */
        uint64_t key_mismatches = 0;
        StatGroup mc_stats;
        StatGroup dram_stats;
        /** Merged simulated-cycle attribution (DESIGN.md §15) over
         *  the same jobs. Plain sums — refs, cycles and the
         *  per-component critical/background split add across
         *  independent runs; all zero when observability was off. */
        uint64_t attrib_refs = 0;
        uint64_t attrib_cycles = 0;
        uint64_t attrib_conservation_failures = 0;
        std::array<Cycle, kAttribComps> attrib_comp_cycles{};
        std::array<Cycle, kAttribComps> attrib_comp_background{};
    };
    std::map<std::string, Aggregate> aggregates;

    size_t ok = 0, failed = 0;

    bool
    allOk() const
    {
        return ok == records.size();
    }
};

class Campaign
{
  public:
    explicit Campaign(std::string name, uint64_t campaign_seed = 1)
        : name_(std::move(name)), seed_(campaign_seed)
    {
    }

    /** Queue a simulation job; returns its submission index. */
    uint32_t add(std::string label, RunSpec spec);
    /** Queue a custom job; returns its submission index. */
    uint32_t add(std::string label, JobFn fn);

    size_t size() const { return jobs_.size(); }
    const std::string &name() const { return name_; }
    uint64_t seed() const { return seed_; }

    /** Execute every queued job once and merge the telemetry. */
    CampaignResult run(const CampaignPolicy &policy = {}) const;

  private:
    struct Job
    {
        std::string label;
        bool is_run = false;
        RunSpec spec;
        JobFn fn;
    };

    std::string name_;
    uint64_t seed_;
    std::vector<Job> jobs_;
};

} // namespace compresso

#endif // COMPRESSO_EXEC_CAMPAIGN_H
