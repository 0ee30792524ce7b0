/**
 * @file
 * Host profiler (src/prof): scope nesting and the inclusive/exclusive
 * identity, thread-local collection with merge-on-report, the runtime
 * and compile-time gates, throughput gauges, and the host_profile
 * section of the run-JSON export.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

#include "prof/profiler.h"
#include "sim/run_export.h"
#include "sim/runner.h"

using namespace compresso;

namespace {

/** Busy-wait so nested scopes accumulate measurable, ordered time.
 *  Sleeping would work too but is far noisier on loaded CI hosts. */
void
spinFor(uint64_t ns)
{
    uint64_t t0 = profNowNs();
    while (profNowNs() - t0 < ns) {
    }
}

// ---------------------------------------------------------------------
// Phase table
// ---------------------------------------------------------------------

TEST(ProfPhases, NamesAreStableAndDotted)
{
    EXPECT_STREQ(profPhaseName(ProfPhase::kBdiCompress), "bdi.compress");
    EXPECT_STREQ(profPhaseName(ProfPhase::kMcFill), "mc.fill");
    EXPECT_STREQ(profPhaseName(ProfPhase::kSimRun), "sim.run");
    for (size_t i = 0; i < kProfPhaseCount; ++i) {
        std::string name = profPhaseName(ProfPhase(i));
        EXPECT_FALSE(name.empty());
        EXPECT_NE(name.find('.'), std::string::npos) << name;
    }
}

// ---------------------------------------------------------------------
// ScopedTimer semantics
// ---------------------------------------------------------------------

TEST(Profiler, NoActiveProfilerMeansNoCollection)
{
    // No ProfScope: timers must be inert (and must not crash).
    {
        ScopedTimer t(ProfPhase::kMcFill);
        spinFor(1000);
    }
    Profiler prof;
    EXPECT_TRUE(prof.snapshot().phases.empty());
}

TEST(Profiler, NestedScopesSplitInclusiveAndExclusive)
{
    Profiler prof;
    {
        ProfScope scope(&prof);
        ScopedTimer outer(ProfPhase::kMcFill);
        spinFor(200000);
        {
            ScopedTimer inner(ProfPhase::kBdiCompress);
            spinFor(200000);
        }
        spinFor(200000);
    }
    ProfSnapshot snap = prof.snapshot();
    ASSERT_EQ(snap.phases.count("mc.fill"), 1u);
    ASSERT_EQ(snap.phases.count("bdi.compress"), 1u);
    const auto &fill = snap.phases.at("mc.fill");
    const auto &bdi = snap.phases.at("bdi.compress");
    EXPECT_EQ(fill.calls, 1u);
    EXPECT_EQ(bdi.calls, 1u);

    // The child's whole inclusive time is the parent's child time:
    // excl(parent) + incl(child) == incl(parent), exactly.
    EXPECT_EQ(fill.excl_ns + bdi.incl_ns, fill.incl_ns);
    // A leaf has no children.
    EXPECT_EQ(bdi.excl_ns, bdi.incl_ns);
    // And the parent demonstrably lost its child's time.
    EXPECT_LT(fill.excl_ns, fill.incl_ns);
    EXPECT_GE(bdi.incl_ns, 200000u);
}

TEST(Profiler, SiblingScopesBothChargeTheParent)
{
    Profiler prof;
    {
        ProfScope scope(&prof);
        ScopedTimer outer(ProfPhase::kSimRun);
        {
            ScopedTimer a(ProfPhase::kMcFill);
            spinFor(100000);
        }
        {
            ScopedTimer b(ProfPhase::kMcWriteback);
            spinFor(100000);
        }
    }
    ProfSnapshot snap = prof.snapshot();
    const auto &run = snap.phases.at("sim.run");
    uint64_t children = snap.phases.at("mc.fill").incl_ns +
                        snap.phases.at("mc.writeback").incl_ns;
    EXPECT_EQ(run.excl_ns + children, run.incl_ns);
}

TEST(Profiler, SamePhaseNestingKeepsExclusiveExact)
{
    Profiler prof;
    {
        ProfScope scope(&prof);
        ScopedTimer outer(ProfPhase::kMcRepack);
        spinFor(100000);
        {
            // Recursion: inclusive double-counts (conventional), but
            // exclusive still partitions the real time.
            ScopedTimer inner(ProfPhase::kMcRepack);
            spinFor(100000);
        }
    }
    ProfSnapshot snap = prof.snapshot();
    const auto &repack = snap.phases.at("mc.repack");
    EXPECT_EQ(repack.calls, 2u);
    EXPECT_GT(repack.incl_ns, repack.excl_ns);
    // Exclusive equals the true elapsed time: outer excl + inner excl
    // covers the outer scope's real span once.
    EXPECT_GE(repack.excl_ns, 200000u);
    EXPECT_LT(repack.excl_ns, repack.incl_ns);
}

TEST(Profiler, ResetClearsTotalsAndGauges)
{
    Profiler prof;
    {
        ProfScope scope(&prof);
        ScopedTimer t(ProfPhase::kMcFill);
        spinFor(1000);
    }
    prof.addWallNs(500);
    prof.addWork(100);
    ASSERT_FALSE(prof.snapshot().phases.empty());

    prof.reset();
    ProfSnapshot snap = prof.snapshot();
    EXPECT_TRUE(snap.phases.empty());
    EXPECT_EQ(snap.wall_ns, 0u);
    EXPECT_EQ(snap.sim_refs, 0u);
    // The thread's state survives a reset and keeps collecting.
    {
        ProfScope scope(&prof);
        ScopedTimer t(ProfPhase::kMcFill);
        spinFor(1000);
    }
    EXPECT_EQ(prof.snapshot().phases.count("mc.fill"), 1u);
    EXPECT_EQ(prof.snapshot().threads, 1u);
}

// ---------------------------------------------------------------------
// Thread-local collection, merge-on-report
// ---------------------------------------------------------------------

TEST(Profiler, MergesQuiescedWorkerThreadsDeterministically)
{
    constexpr unsigned kThreads = 4;
    constexpr unsigned kCallsPerThread = 50;
    Profiler prof;
    std::vector<std::thread> workers;
    for (unsigned w = 0; w < kThreads; ++w) {
        workers.emplace_back([&prof] {
            ProfScope scope(&prof);
            for (unsigned i = 0; i < kCallsPerThread; ++i) {
                ScopedTimer t(ProfPhase::kDramAccess);
                spinFor(1000);
            }
        });
    }
    for (auto &t : workers)
        t.join();

    ProfSnapshot snap = prof.snapshot();
    EXPECT_EQ(snap.threads, kThreads);
    ASSERT_EQ(snap.phases.count("dram.access"), 1u);
    const auto &dram = snap.phases.at("dram.access");
    EXPECT_EQ(dram.calls, uint64_t(kThreads) * kCallsPerThread);
    EXPECT_GE(dram.incl_ns, dram.excl_ns);

    // Merging is a pure reduction: snapshotting again changes nothing.
    ProfSnapshot again = prof.snapshot();
    EXPECT_EQ(again.phases.at("dram.access").calls, dram.calls);
    EXPECT_EQ(again.phases.at("dram.access").incl_ns, dram.incl_ns);
}

TEST(Profiler, SameThreadReusesItsState)
{
    Profiler prof;
    {
        ProfScope scope(&prof);
        ScopedTimer t(ProfPhase::kMcFill);
    }
    {
        ProfScope scope(&prof);
        ScopedTimer t(ProfPhase::kMcFill);
    }
    ProfSnapshot snap = prof.snapshot();
    EXPECT_EQ(snap.threads, 1u);
    EXPECT_EQ(snap.phases.at("mc.fill").calls, 2u);
}

TEST(Profiler, ProfScopeRestoresPreviousActivation)
{
    Profiler a, b;
    {
        ProfScope sa(&a);
        EXPECT_EQ(currentProfiler(), &a);
        {
            ProfScope sb(&b);
            EXPECT_EQ(currentProfiler(), &b);
            ScopedTimer t(ProfPhase::kMcFill);
        }
        EXPECT_EQ(currentProfiler(), &a);
        {
            ProfScope off(nullptr);
            EXPECT_EQ(currentProfiler(), nullptr);
            ScopedTimer t(ProfPhase::kMcWriteback);
        }
    }
    EXPECT_EQ(currentProfiler(), nullptr);
    EXPECT_TRUE(a.snapshot().phases.empty());
    EXPECT_EQ(b.snapshot().phases.at("mc.fill").calls, 1u);
    EXPECT_EQ(b.snapshot().phases.count("mc.writeback"), 0u);
}

// ---------------------------------------------------------------------
// Gauges
// ---------------------------------------------------------------------

TEST(Profiler, ThroughputGaugesDeriveFromTotals)
{
    Profiler prof;
    prof.addWallNs(2000000000); // 2 s
    prof.addWork(1000000);      // 1M refs
    ProfSnapshot snap = prof.snapshot();
    EXPECT_EQ(snap.wall_ns, 2000000000u);
    EXPECT_EQ(snap.sim_refs, 1000000u);
    EXPECT_DOUBLE_EQ(snap.refs_per_host_sec, 500000.0);
    EXPECT_DOUBLE_EQ(snap.host_ns_per_ref, 2000.0);
}

TEST(Profiler, GaugesZeroWhenNothingMeasured)
{
    Profiler prof;
    ProfSnapshot snap = prof.snapshot();
    EXPECT_DOUBLE_EQ(snap.refs_per_host_sec, 0.0);
    EXPECT_DOUBLE_EQ(snap.host_ns_per_ref, 0.0);
}

// ---------------------------------------------------------------------
// Compile-time gate
// ---------------------------------------------------------------------

TEST(Profiler, CompileTimeGateRemovesSites)
{
#ifdef COMPRESSO_PROF_DISABLED
    // The macro must expand to nothing that collects: run a scope
    // under an active profiler and observe zero phases.
    Profiler prof;
    {
        ProfScope scope(&prof);
        CPR_PROF_SCOPE(ProfPhase::kMcFill);
        spinFor(1000);
    }
    EXPECT_TRUE(prof.snapshot().phases.empty());
#else
    Profiler prof;
    {
        ProfScope scope(&prof);
        CPR_PROF_SCOPE(ProfPhase::kMcFill);
        spinFor(1000);
    }
    EXPECT_EQ(prof.snapshot().phases.count("mc.fill"), 1u);
#endif
}

// ---------------------------------------------------------------------
// Integration: runner + export
// ---------------------------------------------------------------------

RunSpec
smallSpec()
{
    RunSpec spec;
    spec.kind = McKind::kCompresso;
    spec.workloads = {"gcc"};
    spec.refs_per_core = 6000;
    spec.warmup_refs = 600;
    return spec;
}

TEST(ProfIntegration, ProfiledRunReportsPhasesAndGauges)
{
    RunSpec spec = smallSpec();
    spec.prof.enabled = true;
    RunResult r = runSystem(spec);

    EXPECT_TRUE(r.prof.enabled);
    EXPECT_EQ(r.prof.threads, 1u);
    EXPECT_GT(r.prof.wall_ns, 0u);
    EXPECT_EQ(r.prof.sim_refs, spec.refs_per_core);
    EXPECT_GT(r.prof.refs_per_host_sec, 0.0);
    EXPECT_GT(r.prof.host_ns_per_ref, 0.0);

#ifndef COMPRESSO_PROF_DISABLED
    // The sim loop and the controller hot paths must all be covered.
    for (const char *phase : {"sim.populate", "sim.run", "mc.fill",
                              "mc.writeback", "mdcache.access",
                              "dram.access"}) {
        EXPECT_EQ(r.prof.phases.count(phase), 1u) << phase;
    }
    // Everything under sim.run nests inside it.
    const auto &run = r.prof.phases.at("sim.run");
    EXPECT_EQ(run.calls, 2u); // warmup section + measured section
    EXPECT_GE(run.incl_ns, r.prof.phases.at("mc.fill").incl_ns);
#endif
}

TEST(ProfIntegration, HierarchyAndStreamPhasesCountEveryRef)
{
    RunSpec spec = smallSpec();
    spec.prof.enabled = true;
    RunResult r = runSystem(spec);

#ifndef COMPRESSO_PROF_DISABLED
    // One stream.next and one cache.hierarchy per simulated reference,
    // warmup included, both nested in sim.run.
    uint64_t refs = spec.warmup_refs + spec.refs_per_core;
    const auto &hier = r.prof.phases.at("cache.hierarchy");
    const auto &stream = r.prof.phases.at("stream.next");
    EXPECT_EQ(hier.calls, refs);
    EXPECT_EQ(stream.calls, refs);
    const auto &run = r.prof.phases.at("sim.run");
    EXPECT_GE(run.incl_ns - run.excl_ns, hier.incl_ns + stream.incl_ns);
    // Fills run after the hierarchy lookup, not inside it, and the
    // metadata cache is still reached from the controller.
    EXPECT_EQ(hier.incl_ns, hier.excl_ns);
    EXPECT_EQ(stream.incl_ns, stream.excl_ns);
    const auto &fill = r.prof.phases.at("mc.fill");
    EXPECT_GT(fill.incl_ns - fill.excl_ns, 0u);
    EXPECT_GT(r.prof.phases.at("mdcache.access").calls, 0u);
#else
    EXPECT_TRUE(r.prof.phases.empty());
#endif
}

TEST(ProfIntegration, DisabledProfilerLeavesResultEmpty)
{
    RunResult r = runSystem(smallSpec());
    EXPECT_FALSE(r.prof.enabled);
    EXPECT_TRUE(r.prof.phases.empty());
    EXPECT_EQ(r.prof.wall_ns, 0u);
}

TEST(ProfIntegration, RunJsonCarriesHostProfile)
{
    RunSpec spec = smallSpec();
    spec.prof.enabled = true;
    RunResult r = runSystem(spec);

    std::ostringstream os;
    writeRunsJson(os, "test_prof", {r});
    std::string doc = os.str();
    EXPECT_NE(doc.find("\"compresso-run-v3\""), std::string::npos);
    EXPECT_NE(doc.find("\"host_profile\""), std::string::npos);
    EXPECT_NE(doc.find("\"host_ns_per_ref\""), std::string::npos);
#ifndef COMPRESSO_PROF_DISABLED
    EXPECT_NE(doc.find("\"sim.run\""), std::string::npos);
    EXPECT_NE(doc.find("\"incl_ns\""), std::string::npos);
#endif
}

TEST(ProfIntegration, RunSinkProfFlagActivatesProfiler)
{
    const char *argv[] = {"tool", "--prof"};
    RunSink sink;
    sink.init(2, const_cast<char **>(argv), "test_prof");
    EXPECT_TRUE(sink.profRequested());
    EXPECT_TRUE(sink.extraArgs().empty());

    RunSpec spec = smallSpec();
    sink.apply(spec);
    EXPECT_TRUE(spec.prof.enabled);
    // --prof alone must not drag observability in.
    EXPECT_FALSE(spec.obs.enabled);
}

} // namespace
