/**
 * @file
 * Watchdog unit tests: per-class stall budgets, deterministic denial
 * windows, and phase digests (DESIGN.md §14).
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "pressure/watchdog.h"

using namespace compresso;

TEST(Watchdog, WithinBudgetNeverBreaches)
{
    Watchdog wd;
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(wd.onOpCost(PressureOp::kRepack, 256));
    EXPECT_EQ(wd.totalBreaches(), 0u);
    EXPECT_FALSE(wd.denies(PressureOp::kRepack));
}

TEST(Watchdog, BreachOpensDenialWindowForThatClassOnly)
{
    WatchdogConfig cfg;
    cfg.op_budget = {100, 100, 100, 100};
    cfg.denial_window = 3;
    Watchdog wd(cfg);

    EXPECT_TRUE(wd.onOpCost(PressureOp::kRelocation, 101));
    EXPECT_EQ(wd.breaches(PressureOp::kRelocation), 1u);
    // Other classes are unaffected.
    EXPECT_FALSE(wd.denies(PressureOp::kRepack));
    EXPECT_FALSE(wd.denies(PressureOp::kMetaRebuild));
    // Exactly denial_window admissions of the breaching class are
    // refused, then the window closes.
    EXPECT_TRUE(wd.denies(PressureOp::kRelocation));
    EXPECT_TRUE(wd.denies(PressureOp::kRelocation));
    EXPECT_TRUE(wd.denies(PressureOp::kRelocation));
    EXPECT_FALSE(wd.denies(PressureOp::kRelocation));
}

TEST(Watchdog, RepeatBreachRearmsWindow)
{
    WatchdogConfig cfg;
    cfg.op_budget = {10, 10, 10, 10};
    cfg.denial_window = 2;
    Watchdog wd(cfg);
    wd.onOpCost(PressureOp::kRepack, 50);
    EXPECT_TRUE(wd.denies(PressureOp::kRepack));
    wd.onOpCost(PressureOp::kRepack, 50); // re-arms while open
    EXPECT_TRUE(wd.denies(PressureOp::kRepack));
    EXPECT_TRUE(wd.denies(PressureOp::kRepack));
    EXPECT_FALSE(wd.denies(PressureOp::kRepack));
    EXPECT_EQ(wd.breaches(PressureOp::kRepack), 2u);
}

TEST(Watchdog, ZeroBudgetDisablesClass)
{
    WatchdogConfig cfg;
    cfg.op_budget = {0, 0, 0, 0};
    Watchdog wd(cfg);
    EXPECT_FALSE(wd.onOpCost(PressureOp::kInflation, ~uint64_t(0)));
    EXPECT_EQ(wd.totalBreaches(), 0u);
}

TEST(Watchdog, DigestTracksDistribution)
{
    Watchdog wd;
    for (uint64_t v : {4u, 8u, 8u, 16u})
        wd.onOpCost(PressureOp::kMetaRebuild, v);
    Watchdog::Digest d = wd.digest(PressureOp::kMetaRebuild);
    EXPECT_EQ(d.count, 4u);
    EXPECT_EQ(d.max, 16u);
    EXPECT_GE(d.p99, d.p50);
    EXPECT_EQ(d.breaches, 0u);
}

TEST(Watchdog, TakePhaseResetsPhaseNotLifetime)
{
    WatchdogConfig cfg;
    cfg.op_budget = {10, 10, 10, 10};
    Watchdog wd(cfg);
    wd.onOpCost(PressureOp::kRepack, 99); // breach
    wd.onOpCost(PressureOp::kRepack, 5);

    auto phase = wd.takePhase();
    EXPECT_EQ(phase[size_t(PressureOp::kRepack)].count, 2u);
    EXPECT_EQ(phase[size_t(PressureOp::kRepack)].breaches, 1u);

    // Phase accumulation reset; lifetime counters keep running.
    auto empty = wd.takePhase();
    EXPECT_EQ(empty[size_t(PressureOp::kRepack)].count, 0u);
    EXPECT_EQ(empty[size_t(PressureOp::kRepack)].breaches, 0u);
    EXPECT_EQ(wd.totalBreaches(), 1u);
}

TEST(Watchdog, DeterministicAcrossInstances)
{
    // Same op-cost sequence -> identical decisions and digests: the
    // watchdog consumes no entropy and no host time.
    WatchdogConfig cfg;
    cfg.op_budget = {64, 64, 64, 64};
    cfg.denial_window = 4;
    Watchdog a(cfg), b(cfg);
    Rng rng(42);
    for (int i = 0; i < 500; ++i) {
        PressureOp op = PressureOp(rng.below(4));
        uint64_t ops = rng.below(128);
        EXPECT_EQ(a.onOpCost(op, ops), b.onOpCost(op, ops));
        if (rng.chance(0.3)) {
            EXPECT_EQ(a.denies(op), b.denies(op));
        }
    }
    EXPECT_EQ(a.totalBreaches(), b.totalBreaches());
    for (size_t i = 0; i < size_t(PressureOp::kCount); ++i) {
        Watchdog::Digest da = a.digest(PressureOp(i));
        Watchdog::Digest db = b.digest(PressureOp(i));
        EXPECT_EQ(da.count, db.count);
        EXPECT_EQ(da.p50, db.p50);
        EXPECT_EQ(da.p99, db.p99);
        EXPECT_EQ(da.max, db.max);
        EXPECT_EQ(da.breaches, db.breaches);
    }
}
