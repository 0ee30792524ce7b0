/**
 * @file
 * Functional equivalence across every optimization configuration: the
 * Sec. IV-B flags change *where* data lives and *what it costs*, never
 * what reads return. Sweeps flag combinations (parameterized) with a
 * randomized workload against a reference map.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <unordered_map>

#include "core/compresso_controller.h"
#include "workloads/datagen.h"

using namespace compresso;

namespace {

struct Flags
{
    bool align;
    bool inflation;
    bool predict;
    bool dyn_ir;
    bool repack;
    bool md_half;
    PageSizing sizing;
    const char *label;
};

// Print the label, so the test names carry no padding or pointer bytes.
void
PrintTo(const Flags &f, std::ostream *os)
{
    *os << '"' << f.label << '"';
}

CompressoConfig
toConfig(const Flags &f)
{
    CompressoConfig cfg;
    cfg.installed_bytes = uint64_t(64) << 20;
    cfg.mdcache.size_bytes = 4 * 1024;
    cfg.line_bins = f.align ? &compressoBins() : &legacyBins();
    cfg.inflation_room = f.inflation;
    cfg.overflow_prediction = f.predict;
    cfg.dynamic_ir_expansion = f.dyn_ir;
    cfg.repack_on_evict = f.repack;
    cfg.mdcache.half_entry_opt = f.md_half;
    cfg.page_sizing = f.sizing;
    return cfg;
}

} // namespace

class CompressoAblations : public ::testing::TestWithParam<Flags>
{
};

TEST_P(CompressoAblations, FunctionalEquivalence)
{
    CompressoController mc(toConfig(GetParam()));
    Rng rng(0xab1a);
    std::unordered_map<Addr, Line> reference;
    Line data;

    for (int iter = 0; iter < 5000; ++iter) {
        Addr a = Addr(rng.below(12)) * kPageBytes +
                 rng.below(kLinesPerPage) * kLineBytes;
        McTrace tr;
        if (rng.chance(0.55)) {
            generateLine(DataClass(rng.below(kNumDataClasses)),
                         rng.next(), data);
            mc.writebackLine(a, data, tr);
            reference[a] = data;
        } else {
            mc.fillLine(a, data, tr);
            Line expect{};
            auto it = reference.find(a);
            if (it != reference.end())
                expect = it->second;
            ASSERT_EQ(data, expect)
                << GetParam().label << " @ " << std::hex << a;
        }
    }

    // Everything intact at the end, and the machine accounting sane.
    for (const auto &[a, expect] : reference) {
        McTrace tr;
        mc.fillLine(a, data, tr);
        ASSERT_EQ(data, expect) << GetParam().label;
    }
    EXPECT_GE(mc.compressionRatio(), 0.9);
}

TEST_P(CompressoAblations, StatsStayConsistent)
{
    CompressoController mc(toConfig(GetParam()));
    Rng rng(0x57a7);
    Line data;
    for (int iter = 0; iter < 3000; ++iter) {
        Addr a = Addr(rng.below(8)) * kPageBytes +
                 rng.below(kLinesPerPage) * kLineBytes;
        McTrace tr;
        if (rng.chance(0.6)) {
            generateLine(DataClass(rng.below(kNumDataClasses)),
                         rng.next(), data);
            mc.writebackLine(a, data, tr);
        } else {
            mc.fillLine(a, data, tr);
        }
    }
    const StatGroup &s = mc.stats();
    // Disabled features must not fire.
    const Flags &f = GetParam();
    if (!f.predict) {
        EXPECT_EQ(s.get("predictor_inflations"), 0u) << f.label;
    }
    if (!f.dyn_ir) {
        EXPECT_EQ(s.get("dyn_ir_expansions"), 0u) << f.label;
    }
    if (!f.repack) {
        EXPECT_EQ(s.get("repacks"), 0u) << f.label;
    }
    if (!f.inflation) {
        EXPECT_EQ(s.get("ir_placements"), 0u) << f.label;
    }
    // Fills/writebacks tally with issue counts.
    EXPECT_EQ(s.get("fills") + s.get("writebacks"), 3000u) << f.label;
}

INSTANTIATE_TEST_SUITE_P(
    FlagSweep, CompressoAblations,
    ::testing::Values(
        Flags{false, false, false, false, false, false,
              PageSizing::kChunked512, "all_off"},
        Flags{true, false, false, false, false, false,
              PageSizing::kChunked512, "align_only"},
        Flags{true, true, false, false, false, false,
              PageSizing::kChunked512, "ir"},
        Flags{true, true, true, false, false, false,
              PageSizing::kChunked512, "ir_predict"},
        Flags{true, true, true, true, false, false,
              PageSizing::kChunked512, "ir_predict_dyn"},
        Flags{true, true, true, true, true, false,
              PageSizing::kChunked512, "plus_repack"},
        Flags{true, true, true, true, true, true,
              PageSizing::kChunked512, "full_compresso"},
        Flags{false, true, false, false, true, true,
              PageSizing::kChunked512, "legacy_bins_repack"},
        Flags{true, true, false, false, false, false,
              PageSizing::kVariable4, "variable_pages"},
        Flags{false, false, false, false, true, false,
              PageSizing::kVariable4, "variable_repack"}),
    [](const auto &info) { return std::string(info.param.label); });
