/**
 * @file
 * Cross-controller parity: the uncompressed, LCP, RMC and Compresso
 * back ends must be functionally indistinguishable — identical
 * write/read semantics on identical access sequences — no matter how
 * differently they store the data. Parameterized over the four
 * controllers.
 */

#include <gtest/gtest.h>

#include <memory>
#include <unordered_map>

#include "core/compresso_controller.h"
#include "core/lcp_controller.h"
#include "core/rmc_controller.h"
#include "core/uncompressed_controller.h"
#include "fault/fault_injector.h"
#include "workloads/datagen.h"

using namespace compresso;

namespace {

/** @p mdcache_bytes: metadata-cache (RMC: BST) size, 0 = the
 *  parity default. */
std::unique_ptr<MemoryController>
makeController(const std::string &kind, size_t mdcache_bytes = 0)
{
    if (kind == "uncompressed")
        return std::make_unique<UncompressedController>();
    if (kind == "lcp") {
        LcpConfig cfg;
        cfg.installed_bytes = uint64_t(64) << 20;
        if (mdcache_bytes != 0)
            cfg.mdcache.size_bytes = mdcache_bytes;
        return std::make_unique<LcpController>(cfg);
    }
    if (kind == "rmc") {
        RmcConfig cfg;
        cfg.installed_bytes = uint64_t(64) << 20;
        if (mdcache_bytes != 0)
            cfg.bst.size_bytes = mdcache_bytes;
        return std::make_unique<RmcController>(cfg);
    }
    CompressoConfig cfg;
    cfg.installed_bytes = uint64_t(64) << 20;
    cfg.mdcache.size_bytes = 8 * 1024; // stress evictions/repacks
    if (mdcache_bytes != 0)
        cfg.mdcache.size_bytes = mdcache_bytes;
    return std::make_unique<CompressoController>(cfg);
}

} // namespace

class ControllerParity : public ::testing::TestWithParam<std::string>
{
  protected:
    std::unique_ptr<MemoryController> mc_ = makeController(GetParam());

    void
    write(Addr a, const Line &d)
    {
        McTrace tr;
        mc_->writebackLine(a, d, tr);
    }

    Line
    read(Addr a)
    {
        Line d;
        McTrace tr;
        mc_->fillLine(a, d, tr);
        return d;
    }
};

TEST_P(ControllerParity, FreshMemoryReadsZero)
{
    EXPECT_TRUE(isZeroLine(read(0)));
    EXPECT_TRUE(isZeroLine(read(123 * kPageBytes + 7 * kLineBytes)));
}

TEST_P(ControllerParity, LastWriteWins)
{
    Line a, b;
    generateLine(DataClass::kFloat, 1, a);
    generateLine(DataClass::kRandom, 2, b);
    write(kPageBytes, a);
    write(kPageBytes, b);
    EXPECT_EQ(read(kPageBytes), b);
}

TEST_P(ControllerParity, NeighborsUnaffected)
{
    Line d;
    generateLine(DataClass::kText, 5, d);
    write(2 * kPageBytes + 10 * kLineBytes, d);
    EXPECT_TRUE(isZeroLine(read(2 * kPageBytes + 9 * kLineBytes)));
    EXPECT_TRUE(isZeroLine(read(2 * kPageBytes + 11 * kLineBytes)));
}

TEST_P(ControllerParity, RandomizedSequenceMatchesReference)
{
    Rng rng(2024);
    std::unordered_map<Addr, Line> reference;
    for (int iter = 0; iter < 6000; ++iter) {
        Addr a = Addr(rng.below(24)) * kPageBytes +
                 rng.below(kLinesPerPage) * kLineBytes;
        if (rng.chance(0.55)) {
            Line d;
            generateLine(DataClass(rng.below(kNumDataClasses)),
                         rng.next(), d);
            write(a, d);
            reference[a] = d;
        } else {
            Line expect{};
            auto it = reference.find(a);
            if (it != reference.end())
                expect = it->second;
            ASSERT_EQ(read(a), expect) << GetParam() << " @ " << a;
        }
    }
}

TEST_P(ControllerParity, ZeroOverwriteReadsZero)
{
    Line d;
    generateLine(DataClass::kRandom, 9, d);
    write(3 * kPageBytes, d);
    write(3 * kPageBytes, Line{});
    EXPECT_TRUE(isZeroLine(read(3 * kPageBytes)));
}

TEST_P(ControllerParity, FootprintAccounting)
{
    Line d;
    generateLine(DataClass::kSmallInt, 4, d);
    write(11 * kPageBytes, d);
    write(12 * kPageBytes, d);
    EXPECT_EQ(mc_->ospaBytes(), 2 * kPageBytes);
    EXPECT_GE(mc_->compressionRatio(), 1.0);
}

TEST_P(ControllerParity, CompressionRatioOrdering)
{
    // Incompressible data must never report a ratio above ~1 + slack.
    Rng rng(7);
    Line d;
    for (unsigned l = 0; l < kLinesPerPage; ++l) {
        generateLine(DataClass::kRandom, rng.next(), d);
        write(20 * kPageBytes + l * kLineBytes, d);
    }
    EXPECT_LE(mc_->compressionRatio(), 1.15);
}

TEST_P(ControllerParity, TracesAreWellFormed)
{
    // A writeback never stalls the core on the device: its only
    // critical op is the entry fetch of a metadata-cache miss. Checked
    // over seeded writebacks with the parity metadata cache and with a
    // 1 KB one (dirty entries evicted throughout), each fault-free and
    // with metadata and data faults walking the recovery ladder.
    FaultConfig fc;
    fc.seed = 99;
    fc.data_bit_rate = 2e-4;
    fc.meta_bit_rate = 2e-4;
    fc.double_bit_frac = 0.5;
    Rng rng(2718);
    for (size_t mdcache_bytes : {size_t(0), size_t(1024)}) {
        for (bool faults : {false, true}) {
            std::unique_ptr<MemoryController> mc =
                makeController(GetParam(), mdcache_bytes);
            FaultInjector fi(fc);
            if (faults)
                mc->attachFaultInjector(&fi);
            for (int i = 0; i < 1000; ++i) {
                Addr a = Addr(rng.below(48)) * kPageBytes +
                         rng.below(kLinesPerPage) * kLineBytes;
                Line d;
                generateLine(DataClass(rng.below(kNumDataClasses)),
                             rng.next(), d);
                McTrace wt;
                mc->writebackLine(a, d, wt);
                unsigned critical = 0;
                bool critical_write = false;
                for (const auto &op : wt.ops) {
                    critical += op.critical;
                    critical_write |= op.critical && op.write;
                }
                ASSERT_FALSE(critical_write)
                    << "mdcache " << mdcache_bytes << " faults " << faults
                    << " writeback " << i;
                ASSERT_EQ(critical, wt.metadata_hit ? 0u : 1u)
                    << "mdcache " << mdcache_bytes << " faults " << faults
                    << " writeback " << i;
            }
            mc->attachFaultInjector(nullptr);
        }
    }

    Line d;
    generateLine(DataClass::kDeltaInt, 3, d);
    write(30 * kPageBytes, d);
    McTrace rt;
    Line out;
    mc_->fillLine(30 * kPageBytes, out, rt);
    // Fill data ops on the critical path are reads.
    for (const auto &op : rt.ops) {
        if (op.critical) {
            EXPECT_FALSE(op.write) << GetParam();
        }
    }
    EXPECT_EQ(out, d);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ControllerParity,
                         ::testing::Values("uncompressed", "lcp", "rmc",
                                           "compresso"),
                         [](const auto &info) { return info.param; });
