/**
 * @file
 * Tests for the DMC baseline (dual hot/cold compression with 1 KB
 * cold granularity and migration costs).
 */

#include <gtest/gtest.h>

#include <unordered_map>

#include "core/dmc_controller.h"
#include "workloads/datagen.h"

using namespace compresso;

namespace {

DmcConfig
baseConfig()
{
    DmcConfig cfg;
    cfg.installed_bytes = uint64_t(64) << 20;
    cfg.mdcache.size_bytes = 16 * 1024;
    cfg.epoch_writebacks = 512;
    return cfg;
}

Line
classLine(DataClass c, uint64_t seed)
{
    Line l;
    generateLine(c, seed, l);
    return l;
}

Addr
addrOf(PageNum page, unsigned line)
{
    return Addr(page) * kPageBytes + Addr(line) * kLineBytes;
}

void
writeLine(DmcController &mc, Addr a, const Line &d)
{
    McTrace tr;
    mc.writebackLine(a, d, tr);
}

Line
readLine(DmcController &mc, Addr a, McTrace *out = nullptr)
{
    Line d;
    McTrace tr;
    mc.fillLine(a, d, tr);
    if (out)
        *out = tr;
    return d;
}

} // namespace

TEST(Dmc, RoundTripEveryDataClass)
{
    DmcController mc(baseConfig());
    for (size_t c = 0; c < kNumDataClasses; ++c) {
        Line in = classLine(DataClass(c), 7 + c);
        writeLine(mc, addrOf(1, unsigned(c)), in);
        EXPECT_EQ(readLine(mc, addrOf(1, unsigned(c))), in)
            << dataClassName(DataClass(c));
    }
}

TEST(Dmc, ColdDemotionAfterIdleEpoch)
{
    DmcConfig cfg = baseConfig();
    cfg.epoch_writebacks = 128;
    DmcController mc(cfg);

    // Page 5 written once, then left idle while other pages churn.
    for (unsigned l = 0; l < kLinesPerPage; ++l)
        writeLine(mc, addrOf(5, l), classLine(DataClass::kPointer, l));
    Rng rng(3);
    for (int i = 0; i < 400; ++i)
        writeLine(mc, addrOf(100 + rng.below(8),
                             unsigned(rng.below(kLinesPerPage))),
                  classLine(DataClass::kSmallInt, rng.next()));

    EXPECT_TRUE(mc.isCold(5));
    // A query: const, and an untouched page is simply not cold.
    EXPECT_FALSE(static_cast<const DmcController &>(mc).isCold(999));
    EXPECT_GE(mc.stats().get("demotions"), 1u);
    // Data survives the representation change.
    for (unsigned l = 0; l < kLinesPerPage; ++l)
        ASSERT_EQ(readLine(mc, addrOf(5, l)),
                  classLine(DataClass::kPointer, l));
}

TEST(Dmc, ColdReadsFetchWholeBlock)
{
    DmcConfig cfg = baseConfig();
    cfg.epoch_writebacks = 64;
    DmcController mc(cfg);
    for (unsigned l = 0; l < kLinesPerPage; ++l)
        writeLine(mc, addrOf(6, l), classLine(DataClass::kPointer, l));
    Rng rng(4);
    for (int i = 0; i < 200; ++i)
        writeLine(mc, addrOf(200 + rng.below(4), 0),
                  classLine(DataClass::kSmallInt, rng.next()));
    ASSERT_TRUE(mc.isCold(6));

    McTrace tr;
    readLine(mc, addrOf(6, 3), &tr);
    // One line costs several device reads (the 1 KB block) and the
    // long LZ latency — DMC's read penalty for cold data.
    unsigned reads = 0;
    for (const auto &op : tr.ops)
        reads += op.critical && !op.write;
    EXPECT_GE(reads, 2u);
    EXPECT_GE(tr.fixed_latency, 64u);
    EXPECT_GE(mc.stats().get("cold_block_reads"), 1u);
}

TEST(Dmc, WritePromotesColdPage)
{
    DmcConfig cfg = baseConfig();
    cfg.epoch_writebacks = 64;
    DmcController mc(cfg);
    for (unsigned l = 0; l < kLinesPerPage; ++l)
        writeLine(mc, addrOf(7, l), classLine(DataClass::kPointer, l));
    Rng rng(5);
    for (int i = 0; i < 200; ++i)
        writeLine(mc, addrOf(300 + rng.below(4), 0),
                  classLine(DataClass::kSmallInt, rng.next()));
    ASSERT_TRUE(mc.isCold(7));

    Line fresh = classLine(DataClass::kFloat, 99);
    writeLine(mc, addrOf(7, 9), fresh);
    EXPECT_FALSE(mc.isCold(7));
    EXPECT_GE(mc.stats().get("promotions"), 1u);
    EXPECT_EQ(readLine(mc, addrOf(7, 9)), fresh);
    EXPECT_EQ(readLine(mc, addrOf(7, 10)),
              classLine(DataClass::kPointer, 10));
}

TEST(Dmc, MigrationCostsAreCounted)
{
    DmcConfig cfg = baseConfig();
    cfg.epoch_writebacks = 64;
    DmcController mc(cfg);
    for (unsigned l = 0; l < kLinesPerPage; ++l)
        writeLine(mc, addrOf(8, l), classLine(DataClass::kPointer, l));
    Rng rng(6);
    for (int i = 0; i < 200; ++i)
        writeLine(mc, addrOf(400 + rng.below(4), 0),
                  classLine(DataClass::kSmallInt, rng.next()));
    writeLine(mc, addrOf(8, 0), classLine(DataClass::kFloat, 1));
    // The paper's critique: granularity changes move a lot of data.
    EXPECT_GT(mc.stats().get("migration_ops"), 20u);
}

TEST(Dmc, ChurnIntegrityAcrossMigrations)
{
    DmcConfig cfg = baseConfig();
    cfg.epoch_writebacks = 256; // frequent demotion cycles
    DmcController mc(cfg);
    Rng rng(41);
    std::unordered_map<Addr, Line> image;
    for (int iter = 0; iter < 4000; ++iter) {
        Addr a = addrOf(10 + rng.below(6),
                        unsigned(rng.below(kLinesPerPage)));
        if (rng.chance(0.5)) {
            Line d = classLine(DataClass(rng.below(kNumDataClasses)),
                               rng.next());
            writeLine(mc, a, d);
            image[a] = d;
        } else {
            Line expect{};
            auto it = image.find(a);
            if (it != image.end())
                expect = it->second;
            ASSERT_EQ(readLine(mc, a), expect);
        }
    }
}

TEST(Dmc, ColdRetainsRatioOnPointerData)
{
    // The cold representation must not squander compression on data
    // where LZ and BDI are comparable (pointer-dense heaps).
    DmcConfig cfg = baseConfig();
    cfg.epoch_writebacks = 128;
    DmcController mc(cfg);
    for (PageNum p = 0; p < 4; ++p)
        for (unsigned l = 0; l < kLinesPerPage; ++l)
            writeLine(mc, addrOf(p, l),
                      classLine(DataClass::kPointer, p * 64 + l));
    double hot_ratio = mc.compressionRatio();
    Rng rng(8);
    for (int i = 0; i < 600; ++i)
        writeLine(mc, addrOf(500 + rng.below(4), 0),
                  classLine(DataClass::kSmallInt, rng.next()));
    for (PageNum p = 0; p < 4; ++p)
        ASSERT_TRUE(mc.isCold(p)) << p;
    // Ratio accounting includes the churn pages; compare page alloc
    // indirectly via machine bytes going down after demotion.
    EXPECT_GT(mc.compressionRatio(), hot_ratio * 0.9);
}

TEST(Dmc, WriteIntoAllZeroColdPageIsStored)
{
    // Page 0 holds chunks but only zero lines when it demotes. The
    // write that promotes it re-lays an all-zero page out (a zero
    // page), and the write's overflow re-layout must then make it a
    // data page again.
    DmcConfig cfg = baseConfig();
    cfg.epoch_writebacks = 4;
    DmcController mc(cfg);
    Line random = classLine(DataClass::kRandom, 11);
    writeLine(mc, addrOf(0, 0), random);
    writeLine(mc, addrOf(0, 0), Line{});
    for (unsigned i = 0; i < 12; ++i)
        writeLine(mc, addrOf(1 + i % 3, i), classLine(DataClass::kRandom, i));
    ASSERT_TRUE(mc.isCold(0));

    writeLine(mc, addrOf(0, 0), random);
    EXPECT_EQ(readLine(mc, addrOf(0, 0)), random);
    AuditReport report = mc.audit();
    EXPECT_TRUE(report.clean()) << report.summary();
}
