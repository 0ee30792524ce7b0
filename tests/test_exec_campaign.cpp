/**
 * @file
 * Campaign engine tests: the serial-vs-parallel determinism guarantee
 * (jobs=1 and jobs=8 produce bit-identical per-job simulated metrics),
 * per-job seed derivation, retry / fail-fast / soft-timeout policy,
 * mid-campaign failure under parallel execution, grid expansion, and
 * the shape of the exported campaign document.
 */

#include <chrono>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/campaign.h"
#include "exec/campaign_export.h"

using namespace compresso;

namespace {

RunSpec
tinySpec(McKind kind, const std::string &workload, uint64_t seed = 1)
{
    RunSpec spec;
    spec.kind = kind;
    spec.workloads = {workload};
    spec.refs_per_core = 2000;
    spec.warmup_refs = 200;
    spec.seed = seed;
    return spec;
}

Campaign
smallRunCampaign()
{
    Campaign c("determinism", /*campaign_seed=*/42);
    c.add("compresso/mcf", tinySpec(McKind::kCompresso, "mcf"));
    c.add("compresso/omnetpp", tinySpec(McKind::kCompresso, "omnetpp"));
    c.add("uncompressed/mcf", tinySpec(McKind::kUncompressed, "mcf"));
    c.add("lcp/mcf", tinySpec(McKind::kLcp, "mcf"));
    return c;
}

CampaignPolicy
quietPolicy(unsigned jobs)
{
    CampaignPolicy policy;
    policy.jobs = jobs;
    policy.progress = ProgressMode::kOff;
    return policy;
}

/** Everything scheduling-independent about a run must match exactly. */
void
expectSameSimulatedMetrics(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.insts, b.insts);
    EXPECT_EQ(a.perf, b.perf);
    EXPECT_EQ(a.comp_ratio, b.comp_ratio);
    EXPECT_EQ(a.effective_ratio, b.effective_ratio);
    EXPECT_EQ(a.extra_total, b.extra_total);
    EXPECT_EQ(a.md_hit_rate, b.md_hit_rate);
    EXPECT_EQ(a.audit_violations, b.audit_violations);
    EXPECT_EQ(a.mc_stats.counters(), b.mc_stats.counters());
    EXPECT_EQ(a.dram_stats.counters(), b.dram_stats.counters());
}

} // namespace

TEST(Campaign, SerialAndParallelRunsAreBitIdentical)
{
    Campaign c = smallRunCampaign();
    CampaignResult serial = c.run(quietPolicy(1));
    CampaignResult parallel = c.run(quietPolicy(8));

    ASSERT_EQ(serial.records.size(), c.size());
    ASSERT_EQ(parallel.records.size(), c.size());
    EXPECT_EQ(serial.pool_jobs, 1u);
    EXPECT_EQ(parallel.pool_jobs, 8u);
    EXPECT_TRUE(serial.allOk());
    EXPECT_TRUE(parallel.allOk());

    for (size_t i = 0; i < c.size(); ++i) {
        const JobRecord &s = serial.records[i];
        const JobRecord &p = parallel.records[i];
        EXPECT_EQ(s.label, p.label);
        EXPECT_EQ(s.seed, p.seed);
        ASSERT_TRUE(s.payload.has_run);
        ASSERT_TRUE(p.payload.has_run);
        expectSameSimulatedMetrics(s.run(), p.run());
    }

    // The merged aggregates are reductions of identical inputs.
    ASSERT_EQ(serial.aggregates.size(), parallel.aggregates.size());
    for (const auto &[kind, agg] : serial.aggregates) {
        const auto &other = parallel.aggregates.at(kind);
        EXPECT_EQ(agg.jobs, other.jobs);
        EXPECT_EQ(agg.mc_stats.counters(), other.mc_stats.counters());
        EXPECT_EQ(agg.dram_stats.counters(),
                  other.dram_stats.counters());
    }
}

TEST(Campaign, DerivedSeedsFollowCombineAndIgnoreScheduling)
{
    Campaign c("seeds", /*campaign_seed=*/7);
    for (int i = 0; i < 16; ++i)
        c.add("job" + std::to_string(i), [](const JobContext &ctx) {
            JobPayload p;
            p.values["seed_lo32"] = double(ctx.seed & 0xffffffffu);
            return p;
        });

    CampaignResult serial = c.run(quietPolicy(1));
    CampaignResult parallel = c.run(quietPolicy(8));
    std::set<uint64_t> unique;
    for (uint32_t i = 0; i < 16; ++i) {
        EXPECT_EQ(serial.records[i].seed, Rng::combine(7, i));
        EXPECT_EQ(serial.records[i].seed, parallel.records[i].seed);
        EXPECT_EQ(serial.records[i].payload.values.at("seed_lo32"),
                  parallel.records[i].payload.values.at("seed_lo32"));
        unique.insert(serial.records[i].seed);
    }
    EXPECT_EQ(unique.size(), 16u); // streams must not collide
}

TEST(Campaign, RetrySucceedsOnSecondAttempt)
{
    Campaign c("retry");
    c.add("flaky", [](const JobContext &ctx) {
        if (ctx.attempt == 0)
            throw std::runtime_error("transient");
        JobPayload p;
        p.values["ok"] = 1;
        return p;
    });
    CampaignPolicy policy = quietPolicy(1);
    policy.max_attempts = 2;
    CampaignResult res = c.run(policy);
    EXPECT_TRUE(res.allOk());
    EXPECT_EQ(res.records[0].attempts, 2u);
    EXPECT_EQ(res.retries, 1u);
    EXPECT_EQ(res.records[0].payload.values.at("ok"), 1);
}

TEST(Campaign, ExhaustedRetriesRecordFailureWithoutAborting)
{
    Campaign c("failures");
    c.add("bad", [](const JobContext &) -> JobPayload {
        throw std::runtime_error("always broken");
    });
    c.add("good", [](const JobContext &) {
        JobPayload p;
        p.values["x"] = 3;
        return p;
    });
    CampaignPolicy policy = quietPolicy(1);
    policy.max_attempts = 3;
    CampaignResult res = c.run(policy);

    EXPECT_FALSE(res.allOk());
    EXPECT_EQ(res.failed, 1u);
    EXPECT_EQ(res.ok, 1u);
    EXPECT_EQ(res.records[0].status, JobStatus::kFailed);
    EXPECT_EQ(res.records[0].attempts, 3u);
    EXPECT_EQ(res.records[0].error, "always broken");
    EXPECT_TRUE(res.records[1].ok());
    EXPECT_EQ(res.retries, 2u);
}

TEST(Campaign, RetryBackoffSchedulesAreBitIdenticalAtEqualSeeds)
{
    CampaignPolicy policy;
    policy.backoff_base_ms = 10;
    policy.backoff_factor = 2.0;
    policy.backoff_max_ms = 2000;
    policy.backoff_jitter = 0.25;

    // The schedule is a pure function of (policy, job seed, attempt):
    // recomputing it must be bit-identical, run to run and call to
    // call — the jitter comes from the job's seed stream, not from
    // host entropy.
    const uint64_t seed = Rng::combine(99, 7);
    for (unsigned attempt = 1; attempt <= 8; ++attempt)
        EXPECT_EQ(retryBackoffNs(policy, seed, attempt),
                  retryBackoffNs(policy, seed, attempt));

    // Different job seeds de-correlate (jitter differs)...
    EXPECT_NE(retryBackoffNs(policy, Rng::combine(99, 7), 1),
              retryBackoffNs(policy, Rng::combine(99, 8), 1));
    // ...while the exponential envelope holds: each step sits in
    // [base * 2^(k-1), base * 2^(k-1) * (1 + jitter)], capped.
    uint64_t prev = 0;
    for (unsigned attempt = 1; attempt <= 6; ++attempt) {
        uint64_t ns = retryBackoffNs(policy, seed, attempt);
        uint64_t lo = 10000000ull << (attempt - 1);
        EXPECT_GE(ns, lo);
        EXPECT_LE(ns, uint64_t(double(lo) * 1.25));
        EXPECT_GT(ns, prev);
        prev = ns;
    }
    // The cap bounds the tail (with jitter headroom on top).
    uint64_t capped = retryBackoffNs(policy, seed, 30);
    EXPECT_LE(capped, uint64_t(2000 * 1.25) * 1000000ull);
}

TEST(Campaign, BackoffDefaultsToImmediateRetry)
{
    CampaignPolicy policy; // backoff_base_ms == 0: historic behavior
    EXPECT_EQ(retryBackoffNs(policy, 123, 1), 0u);
    EXPECT_EQ(retryBackoffNs(policy, 123, 5), 0u);
    // Attempt 0 (the first try) never waits, whatever the policy.
    policy.backoff_base_ms = 50;
    EXPECT_EQ(retryBackoffNs(policy, 123, 0), 0u);
}

TEST(Campaign, BackoffDelaysFlakyRetriesWithoutChangingResults)
{
    Campaign c("backoff-retry");
    c.add("flaky", [](const JobContext &ctx) {
        if (ctx.attempt == 0)
            throw std::runtime_error("transient");
        JobPayload p;
        p.values["ok"] = 1;
        return p;
    });
    CampaignPolicy policy = quietPolicy(1);
    policy.max_attempts = 2;
    policy.backoff_base_ms = 1; // keep the test fast
    policy.backoff_jitter = 0;
    CampaignResult res = c.run(policy);
    EXPECT_TRUE(res.allOk());
    EXPECT_EQ(res.records[0].attempts, 2u);
    EXPECT_EQ(res.retries, 1u);
}

TEST(Campaign, FailFastSkipsJobsNotYetStarted)
{
    Campaign c("failfast");
    c.add("boom", [](const JobContext &) -> JobPayload {
        throw std::runtime_error("fatal");
    });
    for (int i = 0; i < 4; ++i)
        c.add("later" + std::to_string(i), [](const JobContext &) {
            return JobPayload();
        });
    CampaignPolicy policy = quietPolicy(1); // serial: order guaranteed
    policy.max_attempts = 1;
    policy.fail_fast = true;
    CampaignResult res = c.run(policy);

    EXPECT_EQ(res.failed, 1u);
    EXPECT_EQ(res.skipped, 4u);
    for (size_t i = 1; i < res.records.size(); ++i)
        EXPECT_EQ(res.records[i].status, JobStatus::kSkipped);
}

TEST(Campaign, SoftTimeoutFlagsOverdueJobAndDiscardsItsResult)
{
    Campaign c("timeouts");
    c.add("slow", [](const JobContext &ctx) {
        // Cooperative: spin until the watchdog (reporter thread, 250ms
        // period) flags us, with a hard bound so a broken watchdog
        // cannot hang the suite.
        auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
        while (!ctx.cancelled() &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        JobPayload p;
        p.values["late"] = 1; // must be discarded
        return p;
    });
    CampaignPolicy policy = quietPolicy(1);
    policy.timeout_ms = 10;
    policy.max_attempts = 2; // a timeout must not be retried
    CampaignResult res = c.run(policy);

    EXPECT_EQ(res.timeout, 1u);
    EXPECT_EQ(res.records[0].status, JobStatus::kTimeout);
    EXPECT_EQ(res.records[0].attempts, 1u);
    EXPECT_TRUE(res.records[0].payload.values.empty());
}

TEST(Campaign, MidCampaignFailuresUnderParallelExecution)
{
    // The tsan-preset stress case: a wide flood of tiny jobs where
    // every 7th throws, executed by 8 workers.
    Campaign c("stress");
    constexpr uint32_t kJobs = 64;
    for (uint32_t i = 0; i < kJobs; ++i)
        c.add('j' + std::to_string(i), [i](const JobContext &) {
            if (i % 7 == 0)
                throw std::runtime_error("unlucky");
            JobPayload p;
            p.values["i"] = double(i);
            return p;
        });
    CampaignPolicy policy = quietPolicy(8);
    policy.max_attempts = 2;
    CampaignResult res = c.run(policy);

    uint32_t expect_failed = (kJobs + 6) / 7;
    EXPECT_EQ(res.failed, expect_failed);
    EXPECT_EQ(res.ok, kJobs - expect_failed);
    EXPECT_EQ(res.retries, uint64_t(expect_failed)); // one retry each
    for (uint32_t i = 0; i < kJobs; ++i) {
        if (i % 7 == 0)
            EXPECT_EQ(res.records[i].status, JobStatus::kFailed);
        else
            EXPECT_EQ(res.records[i].payload.values.at("i"), double(i));
    }
}

TEST(Campaign, AggregatesMergePerControllerKind)
{
    Campaign c("agg");
    c.add("a", tinySpec(McKind::kCompresso, "mcf"));
    c.add("b", tinySpec(McKind::kCompresso, "mcf"));
    c.add("u", tinySpec(McKind::kUncompressed, "mcf"));
    CampaignResult res = c.run(quietPolicy(1));
    ASSERT_TRUE(res.allOk());

    ASSERT_EQ(res.aggregates.count("compresso"), 1u);
    ASSERT_EQ(res.aggregates.count("uncompressed"), 1u);
    const auto &agg = res.aggregates.at("compresso");
    EXPECT_EQ(agg.jobs, 2u);
    // Identical specs: every merged counter is exactly twice the
    // single-run value, and the checked merge must not have fallen
    // back to the union path.
    EXPECT_EQ(agg.key_mismatches, 0u);
    const StatGroup &one = res.records[0].run().mc_stats;
    for (const auto &[key, val] : agg.mc_stats.counters())
        EXPECT_EQ(val, 2 * one.counters().at(key)) << key;
}

TEST(CampaignGrid, ExpandsRowMajorWithJoinedLabels)
{
    CampaignGrid grid(tinySpec(McKind::kCompresso, "mcf"));
    GridAxis &wl = grid.axis("workload");
    wl.values.push_back(
        {"mcf", [](RunSpec &s) { s.workloads = {"mcf"}; }});
    wl.values.push_back(
        {"omnetpp", [](RunSpec &s) { s.workloads = {"omnetpp"}; }});
    grid.value("sizing", "fixed", [](RunSpec &s) {
        s.compresso.page_sizing = PageSizing::kChunked512;
    });
    grid.value("sizing", "variable", [](RunSpec &s) {
        s.compresso.page_sizing = PageSizing::kVariable4;
    });
    grid.value("sizing", "v3", nullptr);
    EXPECT_EQ(grid.points(), 6u);

    Campaign c("grid");
    uint32_t first = grid.addTo(c);
    EXPECT_EQ(first, 0u);
    ASSERT_EQ(c.size(), 6u);

    CampaignResult res = c.run(quietPolicy(1));
    const char *expected[] = {
        "mcf/fixed",     "mcf/variable",     "mcf/v3",
        "omnetpp/fixed", "omnetpp/variable", "omnetpp/v3",
    };
    for (size_t i = 0; i < 6; ++i)
        EXPECT_EQ(res.records[i].label, expected[i]);
}

TEST(CampaignExport, DocumentHasSchemaJobsAndAggregates)
{
    Campaign c("export", 5);
    c.add("run/mcf", tinySpec(McKind::kCompresso, "mcf"));
    c.add("custom", [](const JobContext &) {
        JobPayload p;
        p.values["speedup"] = 1.25;
        return p;
    });
    c.add("broken", [](const JobContext &) -> JobPayload {
        throw std::runtime_error("nope");
    });
    CampaignPolicy policy = quietPolicy(2);
    policy.max_attempts = 1;
    CampaignResult res = c.run(policy);

    std::ostringstream os;
    writeCampaignJson(os, "test_tool", res);
    const std::string doc = os.str();

    EXPECT_NE(doc.find("\"schema\":\"compresso-campaign-v1\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"tool\":\"test_tool\""), std::string::npos);
    EXPECT_NE(doc.find("\"campaign\":\"export\""), std::string::npos);
    EXPECT_NE(doc.find("\"campaign_seed\":5"), std::string::npos);
    EXPECT_NE(doc.find("\"environment\""), std::string::npos);
    EXPECT_NE(doc.find("\"summary\""), std::string::npos);
    EXPECT_NE(doc.find("\"jobs\""), std::string::npos);
    EXPECT_NE(doc.find("\"label\":\"run/mcf\""), std::string::npos);
    EXPECT_NE(doc.find("\"status\":\"ok\""), std::string::npos);
    EXPECT_NE(doc.find("\"status\":\"failed\""), std::string::npos);
    EXPECT_NE(doc.find("\"error\":\"nope\""), std::string::npos);
    EXPECT_NE(doc.find("\"speedup\":1.25"), std::string::npos);
    EXPECT_NE(doc.find("\"aggregates\""), std::string::npos);
    EXPECT_NE(doc.find("\"mc_stats\""), std::string::npos);

    // Same campaign re-serialized is byte-identical apart from the
    // host-timing fields; with those zeroed the documents must match.
    std::ostringstream os2;
    CampaignResult copy = res;
    copy.wall_ns = res.wall_ns;
    writeCampaignJson(os2, "test_tool", copy);
    EXPECT_EQ(doc, os2.str());
}

TEST(CampaignExport, StatusNamesAreStable)
{
    EXPECT_STREQ(jobStatusName(JobStatus::kOk), "ok");
    EXPECT_STREQ(jobStatusName(JobStatus::kFailed), "failed");
    EXPECT_STREQ(jobStatusName(JobStatus::kTimeout), "timeout");
    EXPECT_STREQ(jobStatusName(JobStatus::kSkipped), "skipped");
}
