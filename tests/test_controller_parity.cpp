/**
 * @file
 * Cross-controller parity: the uncompressed, LCP, RMC, DMC and
 * Compresso back ends must be functionally indistinguishable —
 * identical write/read semantics on identical access sequences — no
 * matter how differently they store the data. Parameterized over the
 * five controllers.
 */

#include <gtest/gtest.h>

#include <memory>
#include <unordered_map>

#include "core/compresso_controller.h"
#include "core/dmc_controller.h"
#include "core/lcp_controller.h"
#include "core/rmc_controller.h"
#include "core/uncompressed_controller.h"
#include "workloads/datagen.h"

using namespace compresso;

namespace {

std::unique_ptr<MemoryController>
makeController(const std::string &kind)
{
    if (kind == "uncompressed")
        return std::make_unique<UncompressedController>();
    if (kind == "lcp") {
        LcpConfig cfg;
        cfg.installed_bytes = uint64_t(64) << 20;
        return std::make_unique<LcpController>(cfg);
    }
    if (kind == "rmc") {
        RmcConfig cfg;
        cfg.installed_bytes = uint64_t(64) << 20;
        return std::make_unique<RmcController>(cfg);
    }
    if (kind == "dmc") {
        DmcConfig cfg;
        cfg.installed_bytes = uint64_t(64) << 20;
        return std::make_unique<DmcController>(cfg);
    }
    CompressoConfig cfg;
    cfg.installed_bytes = uint64_t(64) << 20;
    cfg.mdcache.size_bytes = 8 * 1024; // stress evictions/repacks
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
    Line d;
    generateLine(DataClass::kDeltaInt, 3, d);
    McTrace wt;
    mc_->writebackLine(30 * kPageBytes, d, wt);
    // Writebacks never put reads on the critical path.
    for (const auto &op : wt.ops) {
        if (op.critical) {
            EXPECT_FALSE(op.write == false && false); // placeholder
        }
    }
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
                                           "dmc", "compresso"),
                         [](const auto &info) { return info.param; });
