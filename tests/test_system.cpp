/**
 * @file
 * Integration tests: full system (cores + caches + controller + DRAM)
 * on real workload streams, and the runner's derived metrics.
 */

#include <gtest/gtest.h>

#include "core/uncompressed_controller.h"
#include "sim/runner.h"

using namespace compresso;

namespace {

RunSpec
quickSpec(McKind kind, const std::string &bench)
{
    RunSpec spec;
    spec.kind = kind;
    spec.workloads = {bench};
    spec.refs_per_core = 30000;
    spec.warmup_refs = 3000;
    return spec;
}

} // namespace

TEST(CoreModel, IndependentMissesOverlap)
{
    CoreModel serial, parallel;
    // Ten misses, 300 cycles each, far apart in instructions.
    for (int i = 0; i < 10; ++i) {
        serial.advanceInsts(1000);
        serial.load(serial.now() + 300);
    }
    serial.drainAll();
    // Ten misses back to back: they overlap in the ROB window.
    for (int i = 0; i < 10; ++i) {
        parallel.advanceInsts(2);
        parallel.load(parallel.now() + 300);
    }
    parallel.drainAll();
    EXPECT_LT(parallel.now(), serial.now());
}

TEST(CoreModel, MlpBoundEnforced)
{
    CoreConfig cfg;
    cfg.max_outstanding = 2;
    CoreModel cm(cfg);
    for (int i = 0; i < 8; ++i)
        cm.load(cm.now() + 1000);
    cm.drainAll();
    // With MLP 2, eight 1000-cycle misses take >= ~4000 cycles.
    EXPECT_GE(cm.now(), 3000u);
}

TEST(CoreModel, StallAddsDirectly)
{
    CoreModel cm;
    Cycle before = cm.now();
    cm.stall(5000);
    EXPECT_EQ(cm.now(), before + 5000);
}

TEST(System, RunsAndRetiresInstructions)
{
    SystemConfig cfg = makeSystemConfig(McKind::kCompresso, 1, RunSpec{});
    System sys(cfg, {"gcc"}, 1);
    sys.populate();
    sys.run(5000);
    EXPECT_GT(sys.cycles(), 0u);
    EXPECT_GT(sys.instsRetired(), 5000u);
    EXPECT_GT(sys.mc().stats().get("fills"), 0u);
}

TEST(System, PopulateEstablishesFootprint)
{
    SystemConfig cfg = makeSystemConfig(McKind::kCompresso, 1, RunSpec{});
    System sys(cfg, {"povray"}, 1);
    sys.populate();
    EXPECT_EQ(sys.mc().ospaBytes(),
              uint64_t(profileByName("povray").pages) * kPageBytes);
    EXPECT_GT(sys.mc().compressionRatio(), 1.0);
}

TEST(System, UncompressedHasNoExtraAccesses)
{
    RunResult r = runSystem(quickSpec(McKind::kUncompressed, "gcc"));
    EXPECT_DOUBLE_EQ(r.extra_total, 0.0);
    EXPECT_DOUBLE_EQ(r.comp_ratio, 1.0);
}

TEST(System, CompressoCompressesGcc)
{
    RunResult r = runSystem(quickSpec(McKind::kCompresso, "gcc"));
    EXPECT_GT(r.comp_ratio, 1.3);
    EXPECT_GT(r.md_hit_rate, 0.5);
    EXPECT_GT(r.perf, 0.0);
}

TEST(System, ExtraAccessBreakdownPopulated)
{
    RunResult r = runSystem(quickSpec(McKind::kCompresso, "astar"));
    EXPECT_GE(r.extra_total, 0.0);
    EXPECT_NEAR(r.extra_total,
                r.extra_split + r.extra_overflow + r.extra_repack +
                    r.extra_metadata,
                1e-9);
}

TEST(System, ZeroHeavyBenchmarkGetsZeroShortcuts)
{
    RunResult r = runSystem(quickSpec(McKind::kCompresso, "leslie3d"));
    EXPECT_GT(r.zero_access_frac, 0.1);
}

TEST(System, LcpRunsGcc)
{
    RunResult r = runSystem(quickSpec(McKind::kLcp, "gcc"));
    EXPECT_GT(r.comp_ratio, 1.0);
    EXPECT_GT(r.perf, 0.0);
}

TEST(System, EveryMetadataCacheReportsItsHitRate)
{
    // RMC's BST cache is reached through the controller interface like
    // Compresso's and LCP's metadata caches.
    RunResult r = runSystem(quickSpec(McKind::kRmc, "gcc"));
    EXPECT_GT(r.md_hit_rate, 0.0);
    EXPECT_LE(r.md_hit_rate, 1.0);

    UncompressedController plain;
    EXPECT_EQ(static_cast<MemoryController &>(plain).metadataCache(),
              nullptr);
}

TEST(System, FourCoreSharedSystem)
{
    RunSpec spec;
    spec.kind = McKind::kCompresso;
    spec.workloads = {"gcc", "milc", "povray", "namd"};
    spec.refs_per_core = 8000;
    spec.warmup_refs = 1000;
    RunResult r = runSystem(spec);
    EXPECT_GT(r.insts, 4u * 8000u);
    EXPECT_GT(r.comp_ratio, 1.0);
}

TEST(System, DeterministicAcrossRuns)
{
    RunResult a = runSystem(quickSpec(McKind::kCompresso, "hmmer"));
    RunResult b = runSystem(quickSpec(McKind::kCompresso, "hmmer"));
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.insts, b.insts);
    EXPECT_EQ(a.mc_stats.get("fills"), b.mc_stats.get("fills"));
}

TEST(System, CompressoBeatsLegacyBaselineOnOverflows)
{
    // The unoptimized configuration (legacy bins, no predictor/IR
    // expansion/repack/md-opt) must show more extra accesses than the
    // full Compresso on a churny workload.
    RunSpec base = quickSpec(McKind::kCompresso, "astar");
    base.compresso.line_bins = &legacyBins();
    base.compresso.overflow_prediction = false;
    base.compresso.dynamic_ir_expansion = false;
    base.compresso.repack_on_evict = false;
    base.compresso.mdcache.half_entry_opt = false;
    RunResult unopt = runSystem(base);

    RunResult full = runSystem(quickSpec(McKind::kCompresso, "astar"));
    EXPECT_LT(full.extra_total, unopt.extra_total);
}
