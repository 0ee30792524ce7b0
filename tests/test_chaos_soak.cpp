/**
 * @file
 * ChaosEngine / runSoak tests: every compressed controller survives
 * the adversarial rotation with zero silent corruptions and a clean
 * audit, the collapse storm really escalates the pressure ladder, and
 * the soak document is bit-identical across worker counts and runs
 * (DESIGN.md §14).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "pressure/chaos.h"
#include "pressure/soak_export.h"
#include "sim/postmortem_export.h"

using namespace compresso;

TEST(ChaosScenarioNames, RoundTrip)
{
    for (size_t i = 0; i < size_t(ChaosScenario::kCount); ++i) {
        ChaosScenario s = ChaosScenario(i);
        EXPECT_EQ(chaosScenarioFromName(chaosScenarioName(s)), s);
    }
    EXPECT_EQ(chaosScenarioFromName("bogus"), ChaosScenario::kCount);
}

TEST(ChaosEngine, ConfigNormalizationFillsDerivedFields)
{
    ChaosConfig cc;
    cc.installed_bytes = uint64_t(8) << 20; // 2048 pages installed
    ChaosEngine engine(cc);
    const ChaosConfig &n = engine.config();
    EXPECT_EQ(n.promised_pages, 4096u); // the ~2x promise
    EXPECT_EQ(n.working_pages, 3072u);  // 3/4 of the promise
    EXPECT_EQ(n.swap_capacity_pages, 512u);
    EXPECT_EQ(n.governor.total_chunks,
              (uint64_t(8) << 20) / kChunkBytes);
    EXPECT_EQ(n.phases.size(), ChaosConfig::defaultPhases().size());
}

class ChaosAllControllers : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ChaosAllControllers, ShortRotationIsCleanAndVerified)
{
    ChaosConfig cc;
    cc.seed = 77;
    cc.refs_per_phase = 6000;
    ChaosEngine engine(cc);
    ChaosReport r = engine.run(GetParam());

    EXPECT_TRUE(r.passed) << r.fail_reason;
    EXPECT_EQ(r.silent_corruptions, 0u);
    EXPECT_EQ(r.audit_violations, 0u);
    EXPECT_LE(r.stall_p99_max, kChaosStallP99Bound);
    EXPECT_EQ(r.total_refs,
              cc.refs_per_phase * ChaosConfig::defaultPhases().size());
    ASSERT_EQ(r.phases.size(), ChaosConfig::defaultPhases().size());
    // Every phase carries its telemetry.
    for (const ChaosPhaseReport &ph : r.phases) {
        EXPECT_EQ(ph.reads + ph.writes, ph.refs);
        EXPECT_FALSE(ph.level_end.empty());
    }
    // The swap storm must actually exhaust the bounded swap device.
    EXPECT_GT(r.phases[3].swap_full + r.phases[3].budget_overruns, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ChaosAllControllers,
                         ::testing::Values("compresso", "lcp", "rmc"));

TEST(ChaosEngine, CollapseStormEscalatesPressure)
{
    // A small machine so the entropy ramp really bites: the governor
    // must leave kNormal during the collapse storm, and every
    // verification gate still holds.
    ChaosConfig cc;
    cc.seed = 3;
    cc.installed_bytes = uint64_t(1) << 19;
    cc.refs_per_phase = 50000;
    cc.phases = {ChaosScenario::kCalm, ChaosScenario::kCollapseStorm};
    ChaosEngine engine(cc);
    ChaosReport r = engine.run("compresso");

    EXPECT_TRUE(r.passed) << r.fail_reason;
    const ChaosPhaseReport &storm = r.phases[1];
    EXPECT_GE(storm.max_level, uint32_t(PressureLevel::kElevated));
    // Pressure shed work and/or rescued OOMs, visibly.
    EXPECT_GT(r.throttled_total + r.oom_events, 0u);
    // Watchdog denials and breaches stay mapped to recorded
    // escalations, not silent stalls.
    EXPECT_GE(r.watchdog_denials + r.throttled_total,
              r.watchdog_breaches);
}

TEST(ChaosEngine, IdenticalSeedsIdenticalReports)
{
    ChaosConfig cc;
    cc.seed = 11;
    cc.refs_per_phase = 3000;
    ChaosReport a = ChaosEngine(cc).run("compresso");
    ChaosReport b = ChaosEngine(cc).run("compresso");

    std::ostringstream ja, jb;
    SoakResult ra, rb;
    ra.seed = rb.seed = cc.seed;
    ra.reports.push_back(a);
    rb.reports.push_back(b);
    writeSoakJson(ja, "test", ra);
    writeSoakJson(jb, "test", rb);
    EXPECT_EQ(ja.str(), jb.str());
}

TEST(RunSoak, BitIdenticalAcrossWorkerCounts)
{
    // The acceptance gate: --jobs 1 and --jobs N produce byte-equal
    // compresso-soak-v1 documents for the same seed.
    SoakConfig sc;
    sc.chaos.seed = 5;
    sc.chaos.refs_per_phase = 2000;

    sc.jobs = 1;
    SoakResult serial = runSoak(sc);
    sc.jobs = 4;
    SoakResult parallel = runSoak(sc);

    ASSERT_EQ(serial.reports.size(), ChaosEngine::allKinds().size());
    std::ostringstream js, jp;
    writeSoakJson(js, "test", serial);
    writeSoakJson(jp, "test", parallel);
    EXPECT_EQ(js.str(), jp.str());
    EXPECT_TRUE(serial.allPassed());
}

TEST(RunSoak, KindSubsetAndReportOrder)
{
    SoakConfig sc;
    sc.chaos.refs_per_phase = 1500;
    sc.chaos.phases = {ChaosScenario::kCalm};
    sc.kinds = {"rmc", "lcp"};
    SoakResult res = runSoak(sc);
    ASSERT_EQ(res.reports.size(), 2u);
    EXPECT_EQ(res.reports[0].controller, "rmc");
    EXPECT_EQ(res.reports[1].controller, "lcp");
    EXPECT_TRUE(res.allPassed());
}

TEST(RunSoak, UnknownKindFailsWithItsReason)
{
    // A job that throws must not leave a blank report behind: the
    // soak names the kind and carries the job's error as its reason.
    SoakConfig sc;
    sc.chaos.refs_per_phase = 1000;
    sc.chaos.phases = {ChaosScenario::kCalm};
    sc.kinds = {"bogus"};
    SoakResult res = runSoak(sc);
    ASSERT_EQ(res.reports.size(), 1u);
    EXPECT_EQ(res.reports[0].controller, "bogus");
    EXPECT_FALSE(res.reports[0].passed);
    EXPECT_NE(res.reports[0].fail_reason.find("bogus"), std::string::npos)
        << res.reports[0].fail_reason;
    EXPECT_FALSE(res.allPassed());
}

TEST(SoakExport, SchemaAndShape)
{
    SoakConfig sc;
    sc.chaos.refs_per_phase = 1000;
    sc.chaos.phases = {ChaosScenario::kCalm,
                       ChaosScenario::kFaultBurst};
    sc.kinds = {"compresso"};
    SoakResult res = runSoak(sc);

    std::ostringstream os;
    writeSoakJson(os, "unit", res);
    const std::string doc = os.str();
    EXPECT_NE(doc.find("\"schema\":\"compresso-soak-v1\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"controller\":\"compresso\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"scenario\":\"fault_burst\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"all_passed\":true"), std::string::npos);
    // No host-timing fields may leak into the deterministic document.
    EXPECT_EQ(doc.find("host_ns"), std::string::npos);
    EXPECT_EQ(doc.find("wall_ns"), std::string::npos);
}

TEST(RunSoak, PostmortemBundlesRideReportsDeterministically)
{
    // Bundles harvested per job must merge in kind order and stay
    // byte-identical at any worker count (the --postmortem acceptance
    // gate, mirrored in examples/balloon_oom.cpp).
    SoakConfig sc;
    sc.chaos.seed = 3;
    sc.chaos.refs_per_phase = 2000;
    sc.chaos.phases = {ChaosScenario::kCalm,
                       ChaosScenario::kCollapseStorm};
    sc.chaos.postmortem = true;
    sc.kinds = {"compresso", "rmc"};

    sc.jobs = 1;
    SoakResult serial = runSoak(sc);
    sc.jobs = 4;
    SoakResult parallel = runSoak(sc);

    ASSERT_EQ(serial.reports.size(), 2u);
#ifndef COMPRESSO_OBS_DISABLED
    // The forced collapse-storm bundle is always captured.
    for (const ChaosReport &r : serial.reports)
        EXPECT_GE(r.postmortems.size(), 1u);
#endif
    auto dump = [](const SoakResult &res) {
        std::ostringstream os;
        for (const ChaosReport &r : res.reports)
            for (const PostmortemBundle &b : r.postmortems)
                writePostmortemJson(os, "test_chaos_soak", b);
        return os.str();
    };
    EXPECT_EQ(dump(serial), dump(parallel));
}

TEST(SoakExport, CountsPostmortemBundles)
{
    SoakConfig sc;
    sc.chaos.refs_per_phase = 1000;
    sc.chaos.phases = {ChaosScenario::kCollapseStorm};
    sc.chaos.postmortem = true;
    sc.kinds = {"compresso"};
    SoakResult res = runSoak(sc);
    ASSERT_EQ(res.reports.size(), 1u);

    std::ostringstream os;
    writeSoakJson(os, "unit", res);
    const std::string doc = os.str();
    // The envelope carries only the count; the bundles themselves are
    // separate compresso-postmortem-v1 documents.
    std::string expect =
        "\"postmortems\":" +
        std::to_string(res.reports[0].postmortems.size());
    EXPECT_NE(doc.find(expect), std::string::npos);
}
