#include "exec/campaign.h"

#include <chrono>
#include <exception>

#include "common/rng.h"
#include "exec/thread_pool.h"

namespace compresso {

namespace {

uint64_t
nowNs()
{
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now()
                            .time_since_epoch())
                        .count());
}

} // namespace

const char *
jobStatusName(JobStatus status)
{
    switch (status) {
    case JobStatus::kOk:
        return "ok";
    case JobStatus::kFailed:
        return "failed";
    }
    return "?";
}

uint32_t
Campaign::add(std::string label, RunSpec spec)
{
    Job job;
    job.label = std::move(label);
    job.is_run = true;
    job.spec = std::move(spec);
    jobs_.push_back(std::move(job));
    return uint32_t(jobs_.size() - 1);
}

uint32_t
Campaign::add(std::string label, JobFn fn)
{
    Job job;
    job.label = std::move(label);
    job.is_run = false;
    job.fn = std::move(fn);
    jobs_.push_back(std::move(job));
    return uint32_t(jobs_.size() - 1);
}

CampaignResult
Campaign::run(const CampaignPolicy &policy) const
{
    CampaignResult res;
    res.name = name_;
    res.campaign_seed = seed_;
    unsigned pool_jobs =
        policy.jobs == 0 ? ThreadPool::hardwareJobs() : policy.jobs;
    res.pool_jobs = pool_jobs;
    const size_t total = jobs_.size();
    res.records.resize(total);

    uint64_t t0 = nowNs();
    {
        ProgressReporter reporter(name_, total, policy.progress);

        auto runJob = [&](uint32_t i) {
            const Job &job = jobs_[i];
            JobRecord &rec = res.records[i];
            rec.label = job.label;
            rec.index = i;
            rec.seed = Rng::combine(seed_, i);
            reporter.jobStarted();
            uint64_t j0 = nowNs();
            try {
                if (job.is_run) {
                    rec.payload.run = runSystem(job.spec);
                    rec.payload.run.label = job.label;
                    rec.payload.has_run = true;
                } else {
                    rec.payload = job.fn(rec.seed);
                }
                rec.status = JobStatus::kOk;
            } catch (const std::exception &e) {
                rec.error = e.what();
            } catch (...) {
                rec.error = "non-standard exception";
            }
            rec.host_ns = nowNs() - j0;
            reporter.jobFinished(rec.ok(), rec.host_ns);
        };

        if (pool_jobs == 1) {
            // Serial path: submission order on the calling thread —
            // bit-identical to running the specs by hand.
            for (uint32_t i = 0; i < uint32_t(total); ++i)
                runJob(i);
        } else {
            ThreadPool pool(pool_jobs);
            for (uint32_t i = 0; i < uint32_t(total); ++i)
                pool.submit([&runJob, i] { runJob(i); });
            pool.wait();
            res.steals = pool.steals();
        }
    } // reporter prints its final line here
    res.wall_ns = nowNs() - t0;

    for (const JobRecord &rec : res.records)
        ++(rec.ok() ? res.ok : res.failed);

    // Cross-job aggregates: per controller kind, checked merge with a
    // union fallback (a rare-path counter firing in only one job must
    // be visible, not fatal).
    for (size_t i = 0; i < total; ++i) {
        const JobRecord &rec = res.records[i];
        if (!rec.ok() || !rec.payload.has_run)
            continue;
        auto &agg = res.aggregates[mcKindName(jobs_[i].spec.kind)];
        ++agg.jobs;
        agg.host_ns += rec.host_ns;
        std::string bad;
        if (!agg.mc_stats.mergeChecked(rec.payload.run.mc_stats, &bad)) {
            agg.mc_stats.merge(rec.payload.run.mc_stats);
            ++agg.key_mismatches;
        }
        if (!agg.dram_stats.mergeChecked(rec.payload.run.dram_stats,
                                         &bad)) {
            agg.dram_stats.merge(rec.payload.run.dram_stats);
            ++agg.key_mismatches;
        }
        const AttribSnapshot &at = rec.payload.run.attrib;
        agg.attrib_refs += at.refs;
        agg.attrib_cycles += at.total_cycles;
        agg.attrib_conservation_failures += at.conservation_failures;
        for (size_t c = 0; c < kAttribComps; ++c) {
            agg.attrib_comp_cycles[c] += at.comps[c].cycles;
            agg.attrib_comp_background[c] += at.comps[c].background_cycles;
        }
    }
    return res;
}

} // namespace compresso
