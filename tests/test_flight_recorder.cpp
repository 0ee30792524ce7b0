/**
 * @file
 * Anomaly flight recorder (src/obs/flight_recorder.h, DESIGN.md §16):
 * trigger/chain/rate-limit unit behavior, the Observer record() tap
 * and two-level gate, watermark history, provider sections, the
 * compresso-postmortem-v1 export (its round-trip through
 * tools/obs_report.py lives in test_report_tool.cpp), and
 * chaos-postmortem determinism.
 */

#include <atomic>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/flight_recorder.h"
#include "obs/observer.h"
#include "pressure/chaos.h"
#include "postmortem_samples.h"
#include "sim/postmortem_export.h"

using namespace compresso;

namespace {

// ---------------------------------------------------------------------
// Unit behavior (recorder standalone, null clock/tracer/attrib)
// ---------------------------------------------------------------------

TEST(FlightRecorder, FirstTriggerSnapshotsThenRearms)
{
    FlightRecorder fr(smallConfig(), nullptr, nullptr, nullptr);
    fr.trigger(PostmortemTrigger::kOomRescue, 1, 0);
    EXPECT_EQ(fr.bundleCount(), 1u);
    EXPECT_EQ(fr.suppressed(), 0u);

    // Triggers 2..4 fall inside the re-arm window.
    for (int i = 0; i < 3; ++i)
        fr.trigger(PostmortemTrigger::kOomRescue, 1, 0);
    EXPECT_EQ(fr.bundleCount(), 1u);
    EXPECT_EQ(fr.suppressed(), 3u);

    // Trigger 5 is rearm_triggers past the last snapshot.
    fr.trigger(PostmortemTrigger::kOomRescue, 1, 0);
    EXPECT_EQ(fr.bundleCount(), 2u);
    EXPECT_EQ(fr.triggersTotal(), 5u);

    std::vector<PostmortemBundle> bundles = fr.bundles();
    const PostmortemBundle &b = bundles.back();
    EXPECT_EQ(b.trigger, PostmortemTrigger::kOomRescue);
    EXPECT_EQ(b.triggers_total, 5u);
    EXPECT_EQ(b.triggers_suppressed, 3u);
}

TEST(FlightRecorder, ChainMergesRepeatsAndCountsDrops)
{
    FlightRecorderConfig cfg = smallConfig();
    cfg.chain_capacity = 2;
    FlightRecorder fr(cfg, nullptr, nullptr, nullptr);

    // Three identical (kind, detail) triggers merge into one entry.
    for (int i = 0; i < 3; ++i)
        fr.trigger(PostmortemTrigger::kSwapFull, 7, 0);
    // A different kind appends; the chain is now at capacity.
    fr.trigger(PostmortemTrigger::kOomRescue, 8, 0);
    // Another new (kind, detail) can only be dropped...
    fr.trigger(PostmortemTrigger::kWatchdogBreach, 9, 1);
    // ...but merging into the newest entry still works at capacity.
    fr.trigger(PostmortemTrigger::kOomRescue, 10, 0, /*force=*/true);

    std::vector<PostmortemBundle> bundles = fr.bundles();
    const PostmortemBundle &b = bundles.back();
    ASSERT_EQ(b.chain.size(), 2u);
    EXPECT_EQ(b.chain[0].kind, PostmortemTrigger::kSwapFull);
    EXPECT_EQ(b.chain[0].count, 3u);
    EXPECT_EQ(b.chain[0].page, 7u);
    EXPECT_EQ(b.chain[1].kind, PostmortemTrigger::kOomRescue);
    EXPECT_EQ(b.chain[1].count, 2u);
    EXPECT_EQ(b.chain_dropped, 1u);
    // Invariant checked by obs_report.py: entry counts plus
    // drops reproduce the trigger total.
    EXPECT_EQ(b.chain[0].count + b.chain[1].count + b.chain_dropped,
              b.triggers_total);
}

TEST(FlightRecorder, ForceBypassesRearmButNotBundleCap)
{
    FlightRecorderConfig cfg = smallConfig();
    cfg.max_bundles = 2;
    cfg.rearm_triggers = 1000;
    FlightRecorder fr(cfg, nullptr, nullptr, nullptr);

    fr.trigger(PostmortemTrigger::kChaosStorm, 0, 1);
    fr.trigger(PostmortemTrigger::kChaosStorm, 1, 2, /*force=*/true);
    EXPECT_EQ(fr.bundleCount(), 2u);
    fr.trigger(PostmortemTrigger::kChaosStorm, 2, 3, /*force=*/true);
    EXPECT_EQ(fr.bundleCount(), 2u);
    EXPECT_EQ(fr.suppressed(), 1u);
}

TEST(FlightRecorder, TicksComeFromTheSimulatedClock)
{
    std::atomic<uint64_t> now{123};
    FlightRecorder fr(smallConfig(), &now, nullptr, nullptr);
    fr.trigger(PostmortemTrigger::kOomRescue, 1, 0);
    now.store(200);
    fr.trigger(PostmortemTrigger::kSwapFull, 2, 0, /*force=*/true);

    std::vector<PostmortemBundle> bundles = fr.bundles();
    ASSERT_EQ(bundles.size(), 2u);
    EXPECT_EQ(bundles[0].tick, 123u);
    EXPECT_EQ(bundles[1].tick, 200u);
    ASSERT_EQ(bundles[1].chain.size(), 2u);
    EXPECT_EQ(bundles[1].chain[0].first_tick, 123u);
    EXPECT_EQ(bundles[1].chain[1].first_tick, 200u);
}

TEST(FlightRecorder, OnEventMapsAnomalyKindsOnly)
{
    FlightRecorder fr(smallConfig(), nullptr, nullptr, nullptr);

    // Benign kinds never trigger.
    fr.onEvent(ObsEvent::kMdMiss, 1, 0);
    fr.onEvent(ObsEvent::kRepack, 2, 0);
    // Routine pressure transitions (normal/elevated) are ignored.
    fr.onEvent(ObsEvent::kPressureLevel, 0, 0);
    fr.onEvent(ObsEvent::kPressureLevel, 0, 1);
    // The ladder's benign first rung (metadata rebuild) is ignored.
    fr.onEvent(ObsEvent::kFaultRecovery, 3,
               uint32_t(FaultRung::kMetaRebuild));
    EXPECT_EQ(fr.triggersTotal(), 0u);

    fr.onEvent(ObsEvent::kPressureLevel, 0, 2);
    EXPECT_EQ(fr.bundles().back().trigger,
              PostmortemTrigger::kPressureCritical);
    fr.onEvent(ObsEvent::kPressureLevel, 0, 3);
    fr.onEvent(ObsEvent::kFaultRecovery, 3,
               uint32_t(FaultRung::kInflateSafety));
    fr.onEvent(ObsEvent::kWatchdogBreach, 4, 1);
    fr.onEvent(ObsEvent::kOpThrottled, 5, 2);
    fr.onEvent(ObsEvent::kOomRescue, 6, 1);
    fr.onEvent(ObsEvent::kSwapFull, 7, 0);
    EXPECT_EQ(fr.triggersTotal(), 7u);

    std::vector<PostmortemBundle> bundles = fr.bundles();
    const PostmortemBundle &b = bundles.back();
    ASSERT_GE(b.chain.size(), 1u);
    EXPECT_EQ(b.chain[0].kind, PostmortemTrigger::kPressureCritical);
}

TEST(FlightRecorder, WatermarkHistoryIsBounded)
{
    FlightRecorder fr(smallConfig(), nullptr, nullptr, nullptr);
    fr.noteLevel(0, 900);
    fr.noteLevel(1, 400);
    fr.noteLevel(2, 100); // capacity 2: evicts the oldest
    fr.trigger(PostmortemTrigger::kPressureCritical, 0, 2);

    std::vector<PostmortemBundle> bundles = fr.bundles();
    const PostmortemBundle &b = bundles.back();
    ASSERT_EQ(b.watermarks.size(), 2u);
    EXPECT_EQ(b.watermarks[0].level, 1u);
    EXPECT_EQ(b.watermarks[0].free_permille, 400u);
    EXPECT_EQ(b.watermarks[1].level, 2u);
    EXPECT_EQ(b.watermarks_dropped, 1u);
}

TEST(FlightRecorder, NotesAndProvidersFillEveryBundle)
{
    FlightRecorder fr(smallConfig(), nullptr, nullptr, nullptr);
    fr.setNote("seed", "7");
    fr.addProvider([](PostmortemBundle &b) {
        b.sections["governor"]["level"] = 2;
        b.sections["governor"]["free_chunks"] = 55;
    });
    fr.trigger(PostmortemTrigger::kOomRescue, 1, 0);
    fr.setNote("storm", "swap_storm");
    fr.trigger(PostmortemTrigger::kSwapFull, 2, 0, /*force=*/true);

    std::vector<PostmortemBundle> bundles = fr.bundles();
    ASSERT_EQ(bundles.size(), 2u);
    EXPECT_EQ(bundles[0].notes.at("seed"), "7");
    EXPECT_EQ(bundles[0].notes.count("storm"), 0u);
    EXPECT_EQ(bundles[1].notes.at("storm"), "swap_storm");
    EXPECT_EQ(bundles[1].sections.at("governor").at("level"), 2u);
    EXPECT_EQ(bundles[1].sections.at("governor").at("free_chunks"),
              55u);
}

#if !defined(COMPRESSO_OBS_DISABLED) && !defined(COMPRESSO_CHECKED_BUILD)
TEST(FlightRecorder, ConservationFailureFiresForcedTrigger)
{
    FlightRecorder fr(smallConfig(), nullptr, nullptr, nullptr);
    CycleAttributor attrib;
    attrib.setFlightRecorder(&fr);

    AttribVec comp{};
    comp[size_t(AttribComp::kDecompress)] = 5;
    attrib.record(0x1000, /*total=*/10, comp); // 5 != 10: drift
    EXPECT_EQ(attrib.conservationFailures(), 1u);
    ASSERT_EQ(fr.bundleCount(), 1u);
    EXPECT_EQ(fr.bundles().back().trigger,
              PostmortemTrigger::kConservation);
}
#endif

// ---------------------------------------------------------------------
// Observer integration: the record() tap and the two-level gate
// ---------------------------------------------------------------------

TEST(FlightRecorder, ObserverTapSnapshotsComponentTaggedRing)
{
    ObsConfig oc;
    oc.enabled = true;
    oc.attribution = false;
    Observer obs(oc);
#ifdef COMPRESSO_OBS_DISABLED
    // Compile-time half of the gate: the accessor constant-folds away.
    EXPECT_EQ(obs.flightRecorder(), nullptr);
#else
    FlightRecorder *fr = obs.flightRecorder();
    ASSERT_NE(fr, nullptr);

    obs.setNow(10);
    obs.record(ObsEvent::kMdMiss, 1);
    obs.record(ObsEvent::kRepack, 2);
    obs.setNow(20);
    obs.record(ObsEvent::kOomRescue, 3, 1);

    ASSERT_EQ(fr->bundleCount(), 1u);
    std::vector<PostmortemBundle> bundles = fr->bundles();
    const PostmortemBundle &b = bundles.back();
    EXPECT_EQ(b.trigger, PostmortemTrigger::kOomRescue);
    EXPECT_EQ(b.tick, 20u);
    ASSERT_EQ(b.ring.size(), 3u);
    EXPECT_EQ(b.ring[0].kind, ObsEvent::kMdMiss);
    EXPECT_EQ(b.ring[0].tick, 10u);
    EXPECT_EQ(b.ring[2].kind, ObsEvent::kOomRescue);
    EXPECT_EQ(b.ring[2].tick, 20u);
    EXPECT_EQ(b.ring_total, 3u);
    // The export derives component tags from the event kind.
    EXPECT_EQ(obsEventComp(b.ring[0].kind), AttribComp::kMdcacheMiss);
    EXPECT_EQ(obsEventComp(b.ring[2].kind),
              AttribComp::kPressureStall);
#endif
}

TEST(FlightRecorder, RuntimeGateKeepsRecorderOff)
{
    // The runtime half of the gate is the null Observer* components
    // hold when obs is off; within a constructed Observer, the
    // postmortem knob alone decides whether the recorder exists.
    ObsConfig no_pm;
    no_pm.enabled = true;
    no_pm.postmortem = false;
    Observer obs(no_pm);
    EXPECT_EQ(obs.flightRecorder(), nullptr);
    // The tap must be a no-op, not a crash.
    obs.record(ObsEvent::kOomRescue, 1, 1);
}

// ---------------------------------------------------------------------
// Export round-trip
// ---------------------------------------------------------------------

TEST(PostmortemExport, DocumentNamesTriggerRingAndSections)
{
    std::ostringstream os;
    writePostmortemJson(os, "test_flight_recorder", sampleBundle());
    std::string doc = os.str();

    EXPECT_NE(doc.find(kPostmortemJsonSchema), std::string::npos);
    EXPECT_NE(doc.find("\"tool\""), std::string::npos);
    EXPECT_NE(doc.find("swap_full"), std::string::npos);
    EXPECT_NE(doc.find("\"trigger_chain\""), std::string::npos);
    EXPECT_NE(doc.find("\"ring\""), std::string::npos);
    EXPECT_NE(doc.find("\"latency_breakdown\""), std::string::npos);
    EXPECT_NE(doc.find("\"watermarks\""), std::string::npos);
    EXPECT_NE(doc.find("\"critical\""), std::string::npos);
    EXPECT_NE(doc.find("\"governor\""), std::string::npos);
    EXPECT_NE(doc.find("\"notes\""), std::string::npos);
    EXPECT_NE(doc.find("\"environment\""), std::string::npos);
}

TEST(PostmortemExport, WriteBundlesCreatesNumberedFiles)
{
    FlightRecorder fr(smallConfig(), nullptr, nullptr, nullptr);
    fr.trigger(PostmortemTrigger::kOomRescue, 1, 0);
    fr.trigger(PostmortemTrigger::kSwapFull, 2, 0, /*force=*/true);

    std::string dir = testing::TempDir() + "pm_bundles";
    int n = writePostmortemBundles(dir, "test_flight_recorder",
                                   "postmortem-", fr.bundles(),
                                   /*first_index=*/3);
    ASSERT_EQ(n, 2);
    EXPECT_TRUE(
        std::ifstream(dir + "/postmortem-003.json").good());
    EXPECT_TRUE(
        std::ifstream(dir + "/postmortem-004.json").good());
}

// ---------------------------------------------------------------------
// Chaos integration: forced storm bundles, deterministic content
// ---------------------------------------------------------------------

std::string
serializeBundles(const std::vector<PostmortemBundle> &bundles)
{
    std::ostringstream os;
    for (const PostmortemBundle &b : bundles)
        writePostmortemJson(os, "test_flight_recorder", b);
    return os.str();
}

TEST(ChaosPostmortem, StormPhasesForceBundlesDeterministically)
{
    ChaosConfig cc;
    cc.refs_per_phase = 2000;
    cc.postmortem = true;
    cc.phases = {ChaosScenario::kCalm, ChaosScenario::kCollapseStorm};

    ChaosEngine e1(cc);
    ChaosReport r1 = e1.run("compresso");
    ChaosEngine e2(cc);
    ChaosReport r2 = e2.run("compresso");

#ifndef COMPRESSO_OBS_DISABLED
    // At least the forced collapse-storm bundle, and its trigger
    // chain names the storm.
    ASSERT_GE(r1.postmortems.size(), 1u);
    bool names_storm = false;
    for (const PostmortemTriggerEntry &e : r1.postmortems.back().chain)
        if (e.kind == PostmortemTrigger::kChaosStorm)
            names_storm = true;
    EXPECT_TRUE(names_storm);
    EXPECT_EQ(r1.postmortems.back().notes.at("kind"), "compresso");
#endif
    // Byte-identical across runs (trivially so when compiled out).
    EXPECT_EQ(serializeBundles(r1.postmortems),
              serializeBundles(r2.postmortems));
    EXPECT_EQ(r1.postmortems.size(), r2.postmortems.size());
}

TEST(ChaosPostmortem, OffByDefaultKeepsReportEmpty)
{
    ChaosConfig cc;
    cc.refs_per_phase = 1000;
    cc.phases = {ChaosScenario::kCalm};
    ChaosEngine engine(cc);
    ChaosReport r = engine.run("compresso");
    EXPECT_TRUE(r.postmortems.empty());
}

} // namespace
