/**
 * @file
 * Campaign engine tests: the serial-vs-parallel determinism guarantee
 * (jobs=1 and jobs=8 produce bit-identical per-job simulated metrics),
 * per-job seed derivation, the run-once failure policy, mid-campaign
 * failure under parallel execution, and the shape of the exported
 * campaign document.
 */

#include <atomic>
#include <set>
#include <sstream>
#include <stdexcept>

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

/** Four jobs on the smallest footprints (povray 768 pages, gamess
 *  1,024): each run populates its whole image, which dominates a run
 *  under ThreadSanitizer and says nothing about the engine. */
Campaign
smallRunCampaign()
{
    Campaign c("determinism", /*campaign_seed=*/42);
    c.add("compresso/povray", tinySpec(McKind::kCompresso, "povray"));
    c.add("compresso/gamess", tinySpec(McKind::kCompresso, "gamess"));
    c.add("uncompressed/povray",
          tinySpec(McKind::kUncompressed, "povray"));
    c.add("lcp/povray", tinySpec(McKind::kLcp, "povray"));
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
        c.add("job" + std::to_string(i), [](uint64_t seed) {
            JobPayload p;
            p.values["seed_lo32"] = double(seed & 0xffffffffu);
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
        // The job is handed the seed its record carries.
        EXPECT_EQ(serial.records[i].payload.values.at("seed_lo32"),
                  double(serial.records[i].seed & 0xffffffffu));
        unique.insert(serial.records[i].seed);
    }
    EXPECT_EQ(unique.size(), 16u); // streams must not collide
}

TEST(Campaign, ThrowingJobRunsOnceAndFailsWithItsMessage)
{
    // Jobs are deterministic, so the default policy runs a throwing
    // job once, records its what() and still runs the rest.
    std::atomic<int> calls{0};
    Campaign c("failures");
    c.add("bad", [&calls](uint64_t) -> JobPayload {
        calls.fetch_add(1);
        throw std::runtime_error("always broken");
    });
    c.add("good", [](uint64_t) {
        JobPayload p;
        p.values["x"] = 3;
        return p;
    });
    CampaignResult res = c.run(CampaignPolicy{});

    EXPECT_EQ(calls.load(), 1);
    EXPECT_FALSE(res.allOk());
    EXPECT_EQ(res.failed, 1u);
    EXPECT_EQ(res.ok, 1u);
    EXPECT_EQ(res.records[0].status, JobStatus::kFailed);
    EXPECT_EQ(res.records[0].error, "always broken");
    EXPECT_TRUE(res.records[0].payload.values.empty());
    EXPECT_TRUE(res.records[1].ok());
    EXPECT_EQ(res.records[1].payload.values.at("x"), 3);
}

TEST(Campaign, MidCampaignFailuresUnderParallelExecution)
{
    // The tsan-preset stress case: a wide flood of tiny jobs where
    // every 7th throws, executed by 8 workers.
    Campaign c("stress");
    constexpr uint32_t kJobs = 64;
    for (uint32_t i = 0; i < kJobs; ++i)
        c.add('j' + std::to_string(i), [i](uint64_t) {
            if (i % 7 == 0)
                throw std::runtime_error("unlucky");
            JobPayload p;
            p.values["i"] = double(i);
            return p;
        });
    CampaignResult res = c.run(quietPolicy(8));

    uint32_t expect_failed = (kJobs + 6) / 7;
    EXPECT_EQ(res.failed, expect_failed);
    EXPECT_EQ(res.ok, kJobs - expect_failed);
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
    c.add("a", tinySpec(McKind::kCompresso, "povray"));
    c.add("b", tinySpec(McKind::kCompresso, "povray"));
    c.add("u", tinySpec(McKind::kUncompressed, "povray"));
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

TEST(CampaignExport, DocumentHasSchemaJobsAndAggregates)
{
    Campaign c("export", 5);
    c.add("run/mcf", tinySpec(McKind::kCompresso, "mcf"));
    c.add("custom", [](uint64_t) {
        JobPayload p;
        p.values["speedup"] = 1.25;
        return p;
    });
    c.add("broken", [](uint64_t) -> JobPayload {
        throw std::runtime_error("nope");
    });
    CampaignResult res = c.run(quietPolicy(2));

    std::ostringstream os;
    writeCampaignJson(os, "test_tool", res);
    const std::string doc = os.str();

    EXPECT_NE(doc.find("\"schema\":\"compresso-campaign-v2\""),
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
    // v2: every job runs once, so no retry bookkeeping is written.
    EXPECT_EQ(doc.find("\"attempts\""), std::string::npos);
    EXPECT_EQ(doc.find("\"retries\""), std::string::npos);

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
}
