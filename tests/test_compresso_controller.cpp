/**
 * @file
 * Functional and behavioural tests for the Compresso controller: data
 * integrity through compression/packing/overflow/repacking, plus the
 * stat-visible behaviour of each Sec. IV optimization.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/compresso_controller.h"
#include "obs/observer.h"
#include "workloads/datagen.h"

using namespace compresso;

namespace {

CompressoConfig
baseConfig()
{
    CompressoConfig cfg;
    cfg.installed_bytes = uint64_t(64) << 20; // 64 MB arena
    cfg.mdcache.size_bytes = 16 * 1024;       // small, evicts sooner
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
writeLine(CompressoController &mc, Addr a, const Line &data)
{
    McTrace tr;
    mc.writebackLine(a, data, tr);
}

Line
readLine(CompressoController &mc, Addr a, McTrace *out_trace = nullptr)
{
    Line data;
    McTrace tr;
    mc.fillLine(a, data, tr);
    if (out_trace)
        *out_trace = tr;
    return data;
}

} // namespace

TEST(Compresso, UntouchedPageReadsZero)
{
    CompressoController mc(baseConfig());
    McTrace tr;
    Line data = readLine(mc, addrOf(5, 3), &tr);
    EXPECT_TRUE(isZeroLine(data));
    // Metadata-only: no data device ops.
    for (const auto &op : tr.ops)
        EXPECT_GE(op.addr, Addr(1) << 40);
    EXPECT_EQ(mc.stats().get("zero_fills"), 1u);
}

TEST(Compresso, WriteReadRoundTripSingleLine)
{
    CompressoController mc(baseConfig());
    Line in = classLine(DataClass::kDeltaInt, 7);
    writeLine(mc, addrOf(1, 10), in);
    EXPECT_EQ(readLine(mc, addrOf(1, 10)), in);
    // Other lines of the page still read zero.
    EXPECT_TRUE(isZeroLine(readLine(mc, addrOf(1, 11))));
}

TEST(Compresso, RoundTripEveryDataClass)
{
    CompressoController mc(baseConfig());
    for (size_t c = 0; c < kNumDataClasses; ++c) {
        Line in = classLine(DataClass(c), 11 + c);
        Addr a = addrOf(2, unsigned(c));
        writeLine(mc, a, in);
        EXPECT_EQ(readLine(mc, a), in) << dataClassName(DataClass(c));
    }
}

TEST(Compresso, FullPageRoundTripMixedData)
{
    CompressoController mc(baseConfig());
    Rng rng(99);
    std::array<Line, kLinesPerPage> image;
    for (unsigned l = 0; l < kLinesPerPage; ++l) {
        DataClass c = DataClass(rng.below(kNumDataClasses));
        image[l] = classLine(c, rng.next());
        writeLine(mc, addrOf(3, l), image[l]);
    }
    for (unsigned l = 0; l < kLinesPerPage; ++l)
        ASSERT_EQ(readLine(mc, addrOf(3, l)), image[l]) << l;
}

TEST(Compresso, OverwriteStableUnderChurn)
{
    // Repeatedly rewrite lines with different classes; the latest
    // write must always win despite overflows/IR/repacks.
    CompressoConfig cfg = baseConfig();
    cfg.mdcache.size_bytes = 2 * 1024; // force evictions => repacks
    CompressoController mc(cfg);
    Rng rng(123);
    std::unordered_map<Addr, Line> image;
    for (int iter = 0; iter < 4000; ++iter) {
        PageNum page = rng.below(8);
        unsigned line = unsigned(rng.below(kLinesPerPage));
        Addr a = addrOf(page, line);
        if (rng.chance(0.6)) {
            Line data =
                classLine(DataClass(rng.below(kNumDataClasses)),
                          rng.next());
            writeLine(mc, a, data);
            image[a] = data;
        } else {
            Line expect{};
            auto it = image.find(a);
            if (it != image.end())
                expect = it->second;
            ASSERT_EQ(readLine(mc, a), expect)
                << "page " << page << " line " << line;
        }
    }
    // Final sweep: everything still intact.
    for (const auto &[a, data] : image)
        ASSERT_EQ(readLine(mc, a), data);
}

TEST(Compresso, ZeroWritebacksAreMetadataOnly)
{
    CompressoController mc(baseConfig());
    Line zero{};
    McTrace tr;
    mc.writebackLine(addrOf(4, 0), zero, tr);
    for (const auto &op : tr.ops)
        EXPECT_GE(op.addr, Addr(1) << 40);
    EXPECT_EQ(mc.stats().get("zero_wbs"), 1u);
    EXPECT_EQ(mc.mpaDataBytes(), 0u);
}

TEST(Compresso, ZeroPageUsesNoChunks)
{
    CompressoController mc(baseConfig());
    writeLine(mc, addrOf(6, 0), Line{});
    EXPECT_EQ(mc.pageMeta(6).chunks, 0);
    EXPECT_TRUE(mc.pageMeta(6).zero);
    EXPECT_EQ(mc.ospaBytes(), kPageBytes);
}

TEST(Compresso, CompressiblePageUsesFewChunks)
{
    CompressoController mc(baseConfig());
    for (unsigned l = 0; l < kLinesPerPage; ++l)
        writeLine(mc, addrOf(7, l), classLine(DataClass::kDeltaInt, l));
    // 64 lines at 8 B bins = 512 B => 1 chunk.
    EXPECT_LE(mc.pageMeta(7).chunks, 2);
    EXPECT_GT(mc.compressionRatio(), 3.0);
}

TEST(Compresso, IncompressibleLineOverflowGoesToInflationRoom)
{
    CompressoController mc(baseConfig());
    // Two small lines; the second makes line 0's tail non-empty so
    // growing line 0 is a real (data-moving) overflow.
    writeLine(mc, addrOf(8, 0), classLine(DataClass::kSmallInt, 1));
    writeLine(mc, addrOf(8, 1), classLine(DataClass::kSmallInt, 9));
    uint64_t before = mc.stats().get("line_overflows");
    // Rewrite line 0 with incompressible data: bin grows.
    Line big = classLine(DataClass::kRandom, 2);
    writeLine(mc, addrOf(8, 0), big);
    EXPECT_EQ(mc.stats().get("line_overflows"), before + 1);
    EXPECT_GE(mc.stats().get("ir_placements") +
                  mc.stats().get("dyn_ir_expansions") +
                  mc.stats().get("slot_growths"),
              1u);
    EXPECT_EQ(readLine(mc, addrOf(8, 0)), big);
}

TEST(Compresso, InflationRoomDisabledFallsBackToSlotGrowth)
{
    CompressoConfig cfg = baseConfig();
    cfg.inflation_room = false;
    cfg.dynamic_ir_expansion = false;
    cfg.overflow_prediction = false;
    CompressoController mc(cfg);
    writeLine(mc, addrOf(9, 0), classLine(DataClass::kSmallInt, 1));
    writeLine(mc, addrOf(9, 1), classLine(DataClass::kSmallInt, 2));
    Line big = classLine(DataClass::kRandom, 3);
    writeLine(mc, addrOf(9, 0), big);
    EXPECT_GE(mc.stats().get("slot_growths"), 1u);
    EXPECT_EQ(mc.stats().get("ir_placements"), 0u);
    EXPECT_EQ(readLine(mc, addrOf(9, 0)), big);
    EXPECT_EQ(readLine(mc, addrOf(9, 1)),
              classLine(DataClass::kSmallInt, 2));
}

TEST(Compresso, DynamicIrExpansionAllocatesChunk)
{
    CompressoConfig cfg = baseConfig();
    cfg.overflow_prediction = false; // isolate the IR mechanics
    CompressoController mc(cfg);
    // Fill a page completely with 8 B-bin lines: 512 B, 1 chunk, no
    // spare space for an inflation room. A unit-stride sequence is
    // guaranteed to compress into the 8 B bin under BPC.
    for (unsigned l = 0; l < kLinesPerPage; ++l) {
        Line smooth;
        for (size_t i = 0; i < 16; ++i)
            setLineWord32(smooth, i, uint32_t(100 * l + i));
        writeLine(mc, addrOf(10, l), smooth);
    }
    ASSERT_EQ(mc.pageMeta(10).chunks, 1);
    // Overflow one line: the IR cannot fit in chunk 0 => expansion.
    writeLine(mc, addrOf(10, 5), classLine(DataClass::kRandom, 50));
    EXPECT_GE(mc.stats().get("dyn_ir_expansions"), 1u);
    EXPECT_EQ(mc.pageMeta(10).chunks, 2);
    EXPECT_EQ(readLine(mc, addrOf(10, 5)),
              classLine(DataClass::kRandom, 50));
}

TEST(Compresso, RepackRecoversUnderflowedSpace)
{
    CompressoConfig cfg = baseConfig();
    cfg.mdcache.size_bytes = 1024; // 16 entries: quick evictions
    CompressoController mc(cfg);

    // Page full of random data: ~8 chunks.
    for (unsigned l = 0; l < kLinesPerPage; ++l)
        writeLine(mc, addrOf(11, l), classLine(DataClass::kRandom, l));
    ASSERT_EQ(mc.pageMeta(11).chunks, 8);

    // Data becomes highly compressible.
    for (unsigned l = 0; l < kLinesPerPage; ++l)
        writeLine(mc, addrOf(11, l),
                  classLine(DataClass::kDeltaInt, 100 + l));

    // Touch other pages until page 11's metadata entry is evicted,
    // which triggers the repack.
    for (PageNum p = 100; p < 200; ++p)
        writeLine(mc, addrOf(p, 0), classLine(DataClass::kSmallInt, p));

    EXPECT_GE(mc.stats().get("repacks"), 1u);
    EXPECT_LE(mc.pageMeta(11).chunks, 2);
    // Data integrity across the repack.
    for (unsigned l = 0; l < kLinesPerPage; ++l)
        ASSERT_EQ(readLine(mc, addrOf(11, l)),
                  classLine(DataClass::kDeltaInt, 100 + l));
}

TEST(Compresso, NoRepackWhenDisabled)
{
    CompressoConfig cfg = baseConfig();
    cfg.repack_on_evict = false;
    cfg.mdcache.size_bytes = 1024;
    CompressoController mc(cfg);
    for (unsigned l = 0; l < kLinesPerPage; ++l)
        writeLine(mc, addrOf(12, l), classLine(DataClass::kRandom, l));
    for (unsigned l = 0; l < kLinesPerPage; ++l)
        writeLine(mc, addrOf(12, l), classLine(DataClass::kZero, 0));
    for (PageNum p = 300; p < 400; ++p)
        writeLine(mc, addrOf(p, 0), classLine(DataClass::kSmallInt, p));
    EXPECT_EQ(mc.stats().get("repacks"), 0u);
}

TEST(Compresso, PredictorInflatesStreamingPage)
{
    CompressoConfig cfg = baseConfig();
    cfg.mdcache.size_bytes = 64 * 1024; // keep entries resident
    CompressoController mc(cfg);

    // Streaming pattern over several zero pages: write zeros first,
    // then overwrite everything with random data. LLC evictions reach
    // memory out of order, so the overwrite runs back to front; every
    // grown line then has live data after it (real overflows).
    for (PageNum p = 20; p < 26; ++p)
        for (unsigned l = 0; l < kLinesPerPage; ++l)
            writeLine(mc, addrOf(p, l), Line{});
    for (PageNum p = 20; p < 26; ++p)
        for (int l = kLinesPerPage - 1; l >= 0; --l)
            writeLine(mc, addrOf(p, unsigned(l)),
                      classLine(DataClass::kRandom, p * 64 + l));

    EXPECT_GE(mc.stats().get("predictor_inflations"), 1u);
    // Integrity preserved.
    for (PageNum p = 20; p < 26; ++p)
        for (unsigned l = 0; l < kLinesPerPage; ++l)
            ASSERT_EQ(readLine(mc, addrOf(p, l)),
                      classLine(DataClass::kRandom, p * 64 + l));
}

TEST(Compresso, PredictionDisabledNeverInflates)
{
    CompressoConfig cfg = baseConfig();
    cfg.overflow_prediction = false;
    CompressoController mc(cfg);
    for (PageNum p = 30; p < 34; ++p)
        for (unsigned l = 0; l < kLinesPerPage; ++l)
            writeLine(mc, addrOf(p, l), Line{});
    for (PageNum p = 30; p < 34; ++p)
        for (int l = kLinesPerPage - 1; l >= 0; --l)
            writeLine(mc, addrOf(p, unsigned(l)),
                      classLine(DataClass::kRandom, p * 64 + l));
    EXPECT_EQ(mc.stats().get("predictor_inflations"), 0u);
}

TEST(Compresso, SplitLinesRareWithAlignedBins)
{
    CompressoConfig aligned = baseConfig();
    CompressoConfig legacy = baseConfig();
    legacy.line_bins = &legacyBins();

    CompressoController a(aligned), b(legacy);
    Rng rng(5);
    for (PageNum p = 0; p < 16; ++p) {
        for (unsigned l = 0; l < kLinesPerPage; ++l) {
            Line d = classLine(
                rng.chance(0.5) ? DataClass::kFloat : DataClass::kText,
                rng.next());
            writeLine(a, addrOf(p, l), d);
            writeLine(b, addrOf(p, l), d);
        }
    }
    McTrace tr;
    for (PageNum p = 0; p < 16; ++p)
        for (unsigned l = 0; l < kLinesPerPage; ++l) {
            readLine(a, addrOf(p, l));
            readLine(b, addrOf(p, l));
        }
    EXPECT_LT(a.stats().get("split_fill_lines") + 1,
              b.stats().get("split_fill_lines") + 1);
}

TEST(Compresso, FreePageReleasesChunks)
{
    CompressoController mc(baseConfig());
    for (unsigned l = 0; l < kLinesPerPage; ++l)
        writeLine(mc, addrOf(40, l), classLine(DataClass::kRandom, l));
    EXPECT_GT(mc.mpaDataBytes(), 0u);
    mc.freePage(40);
    EXPECT_EQ(mc.mpaDataBytes(), 0u);
    EXPECT_EQ(mc.ospaBytes(), 0u);
    EXPECT_TRUE(isZeroLine(readLine(mc, addrOf(40, 0))));
}

TEST(Compresso, MetadataAccounting)
{
    CompressoController mc(baseConfig());
    writeLine(mc, addrOf(50, 0), classLine(DataClass::kSmallInt, 1));
    writeLine(mc, addrOf(51, 0), classLine(DataClass::kSmallInt, 2));
    EXPECT_EQ(mc.mpaMetadataBytes(), 2 * kMetadataEntryBytes);
    EXPECT_EQ(mc.ospaBytes(), 2 * kPageBytes);
}

TEST(Compresso, CompressionRatioReportsAverage)
{
    CompressoController mc(baseConfig());
    // One incompressible page (8 chunks) + one compressible (1 chunk).
    for (unsigned l = 0; l < kLinesPerPage; ++l) {
        writeLine(mc, addrOf(60, l), classLine(DataClass::kRandom, l));
        writeLine(mc, addrOf(61, l), classLine(DataClass::kDeltaInt, l));
    }
    double ratio = mc.compressionRatio();
    EXPECT_GT(ratio, 1.2);
    EXPECT_LT(ratio, 3.0);
}

TEST(Compresso, RepackAllReachesSteadyState)
{
    CompressoConfig cfg = baseConfig();
    CompressoController mc(cfg);
    for (PageNum p = 70; p < 74; ++p)
        for (unsigned l = 0; l < kLinesPerPage; ++l)
            writeLine(mc, addrOf(p, l), classLine(DataClass::kRandom, l));
    for (PageNum p = 70; p < 74; ++p)
        for (unsigned l = 0; l < kLinesPerPage; ++l)
            writeLine(mc, addrOf(p, l), Line{});
    mc.repackAll();
    // Everything became zero: all chunks released.
    EXPECT_EQ(mc.mpaDataBytes(), 0u);
    for (PageNum p = 70; p < 74; ++p)
        EXPECT_TRUE(mc.pageMeta(p).zero);
}

TEST(Compresso, RepackAllVisitsPagesInAscendingOrder)
{
#ifdef COMPRESSO_OBS_DISABLED
    GTEST_SKIP() << "needs the observer's event trace";
#else
    // The chunk free list is LIFO, so the order in which repackAll
    // repacks pages decides the chunks each page gets. It must be the
    // page order, not the page table's hash order.
    constexpr PageNum kPages = 24;
    CompressoController mc(baseConfig());
    for (PageNum p = 0; p < kPages; ++p)
        for (unsigned l = 0; l < kLinesPerPage; ++l)
            writeLine(mc, addrOf(p, l), classLine(DataClass::kRandom, l));
    // Zeroing every other line leaves each page 2 KB of free space.
    for (PageNum p = 0; p < kPages; ++p)
        for (unsigned l = 0; l < kLinesPerPage; l += 2)
            writeLine(mc, addrOf(p, l), Line{});

    ObsConfig oc;
    oc.enabled = true;
    Observer obs(oc);
    mc.attachObserver(&obs);
    mc.repackAll();
    mc.attachObserver(nullptr);

    std::vector<PageNum> repacked;
    obs.tracer().forEach([&](const TraceEvent &e) {
        if (e.kind == ObsEvent::kRepack)
            repacked.push_back(e.page);
    });
    ASSERT_EQ(repacked.size(), kPages);
    EXPECT_TRUE(std::is_sorted(repacked.begin(), repacked.end()));
#endif
}

TEST(Compresso, RefusedFreeSlotGrowthKeepsTheOldLine)
{
    // Two chunks of machine memory: lines 0-14 random and 15-16
    // constant fill them, so a random line written into line 16 needs
    // a third chunk that free slot growth cannot get. The write is
    // dropped and the old line stays readable. Rewriting that old
    // line is no underflow: the slot still holds its bin.
    CompressoConfig cfg;
    cfg.installed_bytes = 2 * kChunkBytes;
    CompressoController mc(cfg);
    for (unsigned l = 0; l < 15; ++l)
        writeLine(mc, addrOf(0, l), classLine(DataClass::kRandom, l));
    Line constant = classLine(DataClass::kConstant, 15);
    writeLine(mc, addrOf(0, 15), constant);
    writeLine(mc, addrOf(0, 16), constant);
    ASSERT_EQ(mc.stats().get("machine_oom"), 0u);

    writeLine(mc, addrOf(0, 16), classLine(DataClass::kRandom, 16));
    EXPECT_EQ(mc.stats().get("machine_oom"), 1u);
    EXPECT_EQ(readLine(mc, addrOf(0, 16)), constant);
    EXPECT_EQ(readLine(mc, addrOf(0, 14)), classLine(DataClass::kRandom, 14));
    AuditReport report = mc.audit();
    EXPECT_TRUE(report.clean()) << report.summary();

    writeLine(mc, addrOf(0, 16), constant);
    EXPECT_EQ(mc.stats().get("line_underflows"), 0u);
}
