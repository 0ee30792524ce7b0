/**
 * @file
 * Structural invariants of the Compresso controller, checked after
 * randomized operation storms (property-style): metadata bounds,
 * allocation consistency, machine-memory accounting, and the
 * architectural limits of Sec. III (8 chunks, 17 inflated lines).
 */

#include <gtest/gtest.h>

#include <ostream>

#include "core/compresso_controller.h"
#include "workloads/datagen.h"

using namespace compresso;

namespace {

struct StormParams
{
    unsigned pages;
    double write_frac;
    unsigned ops;
    const char *label;
};

// Print the label, so the test names carry no padding or pointer bytes.
void
PrintTo(const StormParams &p, std::ostream *os)
{
    *os << '"' << p.label << '"';
}

class CompressoInvariants
    : public ::testing::TestWithParam<StormParams>
{
};

void
checkPage(CompressoController &mc, PageNum page)
{
    const MetadataEntry &m = mc.pageMeta(page);
    const SizeBins &bins = mc.lineBins();

    ASSERT_LE(m.chunks, kChunksPerPage);
    ASSERT_LE(m.inflate_count, kMaxInflatedLines);

    if (!m.valid) {
        EXPECT_EQ(m.chunks, 0);
        return;
    }
    if (m.zero) {
        EXPECT_EQ(m.chunks, 0) << "zero pages use no chunks";
        return;
    }

    // Every allocated chunk pointer must be real.
    for (unsigned c = 0; c < m.chunks; ++c)
        EXPECT_NE(m.mpfn[c], kNoChunk);
    for (unsigned c = m.chunks; c < kChunksPerPage; ++c)
        EXPECT_EQ(m.mpfn[c], kNoChunk);

    // Packed region + inflation room fit the allocation.
    uint32_t pack = 0;
    for (uint8_t code : m.line_code)
        pack += bins.binSize(code);
    uint32_t used = uint32_t(roundUp(pack, kLineBytes)) +
                    uint32_t(m.inflate_count) * uint32_t(kLineBytes);
    EXPECT_LE(used, uint32_t(m.chunks) * kChunkBytes)
        << "page " << page << " overcommitted";

    // Inflation pointers reference distinct lines.
    for (unsigned i = 0; i < m.inflate_count; ++i) {
        EXPECT_LT(m.inflate_line[i], kLinesPerPage);
        for (unsigned j = i + 1; j < m.inflate_count; ++j)
            EXPECT_NE(m.inflate_line[i], m.inflate_line[j]);
    }

    // free_space never exceeds the allocation.
    EXPECT_LE(m.free_space, uint32_t(m.chunks) * kChunkBytes);
}

} // namespace

TEST_P(CompressoInvariants, HoldAfterRandomStorm)
{
    const StormParams &p = GetParam();
    CompressoConfig cfg;
    cfg.installed_bytes = uint64_t(64) << 20;
    cfg.mdcache.size_bytes = 4 * 1024;
    CompressoController mc(cfg);

    Rng rng(Rng::mix(p.pages, p.ops));
    Line data;
    for (unsigned i = 0; i < p.ops; ++i) {
        Addr a = Addr(rng.below(p.pages)) * kPageBytes +
                 rng.below(kLinesPerPage) * kLineBytes;
        McTrace tr;
        if (rng.chance(p.write_frac)) {
            generateLine(DataClass(rng.below(kNumDataClasses)),
                         rng.next(), data);
            mc.writebackLine(a, data, tr);
        } else {
            mc.fillLine(a, data, tr);
        }
    }

    uint64_t chunk_bytes = 0;
    for (PageNum page = 0; page < p.pages; ++page) {
        checkPage(mc, page);
        chunk_bytes +=
            uint64_t(mc.pageMeta(page).chunks) * kChunkBytes;
    }
    // Machine accounting: the allocator's usage equals the sum of all
    // pages' allocations (no leaks, no double-frees).
    EXPECT_EQ(mc.mpaDataBytes(), chunk_bytes) << p.label;
}

TEST_P(CompressoInvariants, FreeingEverythingReturnsAllChunks)
{
    const StormParams &p = GetParam();
    CompressoConfig cfg;
    cfg.installed_bytes = uint64_t(64) << 20;
    CompressoController mc(cfg);

    Rng rng(Rng::mix(p.ops, p.pages));
    Line data;
    for (unsigned i = 0; i < p.ops / 2; ++i) {
        generateLine(DataClass(rng.below(kNumDataClasses)), rng.next(),
                     data);
        McTrace tr;
        mc.writebackLine(Addr(rng.below(p.pages)) * kPageBytes +
                             rng.below(kLinesPerPage) * kLineBytes,
                         data, tr);
    }
    for (PageNum page = 0; page < p.pages; ++page)
        mc.freePage(page);
    EXPECT_EQ(mc.mpaDataBytes(), 0u) << p.label;
    EXPECT_EQ(mc.ospaBytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Storms, CompressoInvariants,
    ::testing::Values(StormParams{2, 0.8, 4000, "two_hot_pages"},
                      StormParams{16, 0.5, 6000, "balanced"},
                      StormParams{64, 0.3, 6000, "read_heavy"},
                      StormParams{8, 0.95, 8000, "write_storm"}),
    [](const auto &info) { return info.param.label; });

TEST(CompressoLimits, SeventeenInflatedLinesMax)
{
    CompressoConfig cfg;
    cfg.installed_bytes = uint64_t(32) << 20;
    cfg.overflow_prediction = false; // no early bailout to raw pages
    CompressoController mc(cfg);
    Line small, big;

    // Fill a page with compressible lines, then overflow lines one by
    // one from the back (non-empty tails => real overflows).
    for (unsigned l = 0; l < kLinesPerPage; ++l) {
        generateLine(DataClass::kDeltaInt, l, small);
        McTrace tr;
        mc.writebackLine(Addr(1) * kPageBytes + l * kLineBytes, small,
                         tr);
    }
    Rng rng(5);
    for (int l = 40; l >= 0; --l) {
        generateLine(DataClass::kRandom, rng.next(), big);
        McTrace tr;
        mc.writebackLine(Addr(1) * kPageBytes + unsigned(l) * kLineBytes,
                         big, tr);
        ASSERT_LE(mc.pageMeta(1).inflate_count, kMaxInflatedLines);
    }
    // All data still correct despite the forced slot growths.
    Rng rng2(5);
    for (int l = 40; l >= 0; --l) {
        generateLine(DataClass::kRandom, rng2.next(), big);
        Line out;
        McTrace tr;
        mc.fillLine(Addr(1) * kPageBytes + unsigned(l) * kLineBytes, out,
                    tr);
        ASSERT_EQ(out, big) << l;
    }
}
