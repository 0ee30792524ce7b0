/**
 * @file
 * Tests for the invariant auditor (src/check): (1) randomized stress
 * replays mixed workloads through CompressoController under every
 * combination of the five optimization toggles and asserts audit() is
 * clean after every N operations; (2) the baseline controllers audit
 * clean through the common MemoryController::audit() interface;
 * (3) deliberate corruptions of every violation class — leaked chunk,
 * double-mapped chunk, use-after-release, stale free_space, invalid
 * size-bin code, zero page with storage, malformed inflation state,
 * layout overcommit — are detected and classified.
 */

#include <gtest/gtest.h>

#include "check/invariant_auditor.h"
#include "core/compresso_controller.h"
#include "core/lcp_controller.h"
#include "core/rmc_controller.h"
#include "workloads/datagen.h"

using namespace compresso;

namespace {

/** Replay a seeded mixed fill/writeback workload. */
void
storm(MemoryController &mc, unsigned pages, unsigned ops,
      double write_frac, uint64_t seed, unsigned audit_every = 0)
{
    Rng rng(seed);
    Line data;
    for (unsigned i = 0; i < ops; ++i) {
        Addr a = Addr(rng.below(pages)) * kPageBytes +
                 rng.below(kLinesPerPage) * kLineBytes;
        McTrace tr;
        if (rng.chance(write_frac)) {
            generateLine(DataClass(rng.below(kNumDataClasses)),
                         rng.next(), data);
            mc.writebackLine(a, data, tr);
        } else {
            mc.fillLine(a, data, tr);
        }
        if (audit_every != 0 && (i + 1) % audit_every == 0) {
            AuditReport rep = mc.audit();
            ASSERT_TRUE(rep.clean())
                << "after op " << i << ":\n"
                << rep.summary();
        }
    }
}

/** Seed one page of @p mc with compressible data on every line. */
void
seedPage(CompressoController &mc, PageNum page,
         DataClass cls = DataClass::kDeltaInt)
{
    Line data;
    for (unsigned l = 0; l < kLinesPerPage; ++l) {
        generateLine(cls, page * kLinesPerPage + l, data);
        McTrace tr;
        mc.writebackLine(page * kPageBytes + l * kLineBytes, data, tr);
    }
}

CompressoConfig
smallConfig()
{
    CompressoConfig cfg;
    cfg.installed_bytes = uint64_t(32) << 20;
    cfg.mdcache.size_bytes = 4 * 1024;
    return cfg;
}

} // namespace

// ---------------------------------------------------------------------
// Randomized stress under every toggle combination (Sec. IV-B).
// ---------------------------------------------------------------------

class AuditorToggleStress : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(AuditorToggleStress, AuditCleanThroughout)
{
    unsigned mask = GetParam();
    CompressoConfig cfg = smallConfig();
    cfg.inflation_room = mask & 1u;
    cfg.overflow_prediction = mask & 2u;
    cfg.dynamic_ir_expansion = mask & 4u;
    cfg.repack_on_evict = mask & 8u;
    cfg.mdcache.half_entry_opt = mask & 16u;
    CompressoController mc(cfg);

    const unsigned kPages = 24;
    storm(mc, kPages, 1500, 0.7, Rng::mix(mask, 99),
          /*audit_every=*/250);

    // Free half the pages (balloon-release path), keep going.
    for (PageNum p = 0; p < kPages; p += 2)
        mc.freePage(p);
    {
        AuditReport rep = mc.audit();
        ASSERT_TRUE(rep.clean()) << rep.summary();
    }
    storm(mc, kPages, 800, 0.7, Rng::mix(mask, 7), /*audit_every=*/200);

    // Settle pending repacking, then tear everything down: the chunk
    // map must return to exactly-empty (no leaks survive a full free).
    mc.flush();
    {
        AuditReport rep = mc.audit();
        ASSERT_TRUE(rep.clean()) << "after flush:\n" << rep.summary();
    }
    for (PageNum p = 0; p < kPages; ++p)
        mc.freePage(p);
    AuditReport rep = mc.audit();
    EXPECT_TRUE(rep.clean()) << rep.summary();
    EXPECT_EQ(mc.mpaDataBytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllToggleCombos, AuditorToggleStress,
                         ::testing::Range(0u, 32u),
                         [](const auto &info) {
                             return "mask" + std::to_string(info.param);
                         });

TEST(AuditorStress, LegacyBinsAndVariablePageSizing)
{
    CompressoConfig cfg = smallConfig();
    cfg.line_bins = &legacyBins(); // 0/22/44/64
    cfg.page_sizing = PageSizing::kVariable4;
    CompressoController mc(cfg);
    storm(mc, 16, 2500, 0.6, 1234, /*audit_every=*/250);
    AuditReport rep = mc.audit();
    EXPECT_TRUE(rep.clean()) << rep.summary();
}

TEST(AuditorStress, EightBinAblation)
{
    CompressoConfig cfg = smallConfig();
    cfg.line_bins = &eightBins();
    CompressoController mc(cfg);
    storm(mc, 16, 2500, 0.6, 4321, /*audit_every=*/250);
    AuditReport rep = mc.audit();
    EXPECT_TRUE(rep.clean()) << rep.summary();
}

// ---------------------------------------------------------------------
// The common auditable interface: baselines audit clean too.
// ---------------------------------------------------------------------

TEST(AuditorBaselines, LcpRmcAuditClean)
{
    LcpConfig lcp_cfg;
    lcp_cfg.installed_bytes = uint64_t(32) << 20;
    LcpController lcp(lcp_cfg);

    RmcConfig rmc_cfg;
    rmc_cfg.installed_bytes = uint64_t(32) << 20;
    RmcController rmc(rmc_cfg);

    MemoryController *mcs[] = {&lcp, &rmc};
    for (MemoryController *mc : mcs) {
        SCOPED_TRACE(mc->name());
        storm(*mc, 20, 4000, 0.7, 77, /*audit_every=*/500);
        for (PageNum p = 0; p < 20; ++p)
            mc->freePage(p);
        AuditReport rep = mc->audit();
        EXPECT_TRUE(rep.clean()) << rep.summary();
        EXPECT_EQ(mc->mpaDataBytes(), 0u);
    }
}

TEST(AuditorBaselines, DefaultControllerAuditIsClean)
{
    // Controllers without auditable state report clean via the base.
    CompressoConfig cfg = smallConfig();
    CompressoController mc(cfg);
    AuditReport rep = static_cast<MemoryController &>(mc).audit();
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(rep.summary(), "audit: clean\n");
}

// ---------------------------------------------------------------------
// Deliberate corruption: every violation class must be detected.
// ---------------------------------------------------------------------

class AuditorCorruption : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        mc = std::make_unique<CompressoController>(smallConfig());
        seedPage(*mc, 0);
        ASSERT_TRUE(mc->audit().clean());
        ASSERT_GT(mc->pageMeta(0).chunks, 0u);
    }

    std::unique_ptr<CompressoController> mc;
};

TEST_F(AuditorCorruption, LeakedChunkDetected)
{
    // Allocate a chunk no metadata entry reaches.
    ASSERT_NE(mc->chunkAllocatorForTest().allocate(), kNoChunk);
    AuditReport rep = mc->audit();
    EXPECT_FALSE(rep.clean());
    EXPECT_GE(rep.count(ViolationKind::kChunkLeak), 1u)
        << rep.summary();
}

TEST_F(AuditorCorruption, DoubleMappedChunkDetected)
{
    seedPage(*mc, 1);
    MetadataEntry &m0 = mc->pageMetaForTest(0);
    MetadataEntry &m1 = mc->pageMetaForTest(1);
    m1.mpfn[0] = m0.mpfn[0]; // two pages now share one chunk
    AuditReport rep = mc->audit();
    EXPECT_GE(rep.count(ViolationKind::kChunkDoubleMap), 1u)
        << rep.summary();
    // The chunk page 1 abandoned is now leaked as well.
    EXPECT_GE(rep.count(ViolationKind::kChunkLeak), 1u);
}

TEST_F(AuditorCorruption, UseAfterReleaseDetected)
{
    // Release a chunk the metadata still points at.
    mc->chunkAllocatorForTest().release(mc->pageMeta(0).mpfn[0]);
    AuditReport rep = mc->audit();
    EXPECT_GE(rep.count(ViolationKind::kChunkDead), 1u)
        << rep.summary();
}

TEST_F(AuditorCorruption, StaleFreeSpaceDetected)
{
    MetadataEntry &m = mc->pageMetaForTest(0);
    m.free_space = uint16_t(m.free_space + 64);
    AuditReport rep = mc->audit();
    EXPECT_GE(rep.count(ViolationKind::kStaleFreeSpace), 1u)
        << rep.summary();
}

TEST_F(AuditorCorruption, InvalidSizeBinCodeDetected)
{
    // compressoBins() has 4 bins; any code >= 4 indexes nothing.
    mc->pageMetaForTest(0).line_code[5] = 9;
    AuditReport rep = mc->audit();
    EXPECT_GE(rep.count(ViolationKind::kBadSizeCode), 1u)
        << rep.summary();
}

TEST_F(AuditorCorruption, ZeroPageWithStorageDetected)
{
    // Page 2 becomes a valid zero page (all-zero writeback)...
    Line zero{};
    McTrace tr;
    mc->writebackLine(2 * kPageBytes, zero, tr);
    ASSERT_TRUE(mc->pageMeta(2).zero);
    // ...then is corrupted to own a chunk.
    MetadataEntry &m = mc->pageMetaForTest(2);
    m.chunks = 1;
    m.mpfn[0] = uint32_t(mc->chunkAllocatorForTest().allocate());
    AuditReport rep = mc->audit();
    EXPECT_GE(rep.count(ViolationKind::kZeroPageStorage), 1u)
        << rep.summary();
}

TEST_F(AuditorCorruption, FreedPageWithStorageDetected)
{
    ChunkNum c = mc->chunkAllocatorForTest().allocate();
    mc->freePage(0);
    MetadataEntry &m = mc->pageMetaForTest(0);
    ASSERT_FALSE(m.valid);
    m.chunks = 1;
    m.mpfn[0] = uint32_t(c);
    AuditReport rep = mc->audit();
    EXPECT_GE(rep.count(ViolationKind::kInvalidPageStorage), 1u)
        << rep.summary();
}

TEST_F(AuditorCorruption, DuplicateInflatePointersDetected)
{
    MetadataEntry &m = mc->pageMetaForTest(0);
    ASSERT_TRUE(m.compressed);
    m.inflate_count = 2;
    m.inflate_line[0] = 3;
    m.inflate_line[1] = 3;
    AuditReport rep = mc->audit();
    EXPECT_GE(rep.count(ViolationKind::kBadInflate), 1u)
        << rep.summary();
}

TEST_F(AuditorCorruption, OvercommitDetected)
{
    // Claim every line is stored raw while keeping the small
    // compressed allocation: 4 KB of layout in < 4 KB of chunks.
    MetadataEntry &m = mc->pageMetaForTest(0);
    ASSERT_LT(m.chunks, kChunksPerPage);
    m.line_code.fill(uint8_t(mc->lineBins().count() - 1));
    AuditReport rep = mc->audit();
    EXPECT_GE(rep.count(ViolationKind::kOvercommit), 1u)
        << rep.summary();
}

TEST_F(AuditorCorruption, MpfnPastCountDetected)
{
    MetadataEntry &m = mc->pageMetaForTest(0);
    ASSERT_LT(m.chunks, kChunksPerPage);
    m.mpfn[kChunksPerPage - 1] = m.mpfn[0];
    AuditReport rep = mc->audit();
    EXPECT_GE(rep.count(ViolationKind::kMpfnNotCleared), 1u)
        << rep.summary();
}

TEST_F(AuditorCorruption, OutOfRangeChunkDetected)
{
    // An id the allocator never handed out (past the frontier).
    mc->pageMetaForTest(0).mpfn[0] = (1u << 27);
    AuditReport rep = mc->audit();
    EXPECT_GE(rep.count(ViolationKind::kChunkOutOfRange), 1u)
        << rep.summary();
    // The real chunk it replaced is now unreachable.
    EXPECT_GE(rep.count(ViolationKind::kChunkLeak), 1u);
}

// ---------------------------------------------------------------------
// Auditor pieces standalone (no controller).
// ---------------------------------------------------------------------

TEST(ChunkCrossCheck, ComplementOfFreeList)
{
    ChunkAllocator alloc(16 * kChunkBytes);
    ChunkNum a = alloc.allocate();
    ChunkNum b = alloc.allocate();
    ChunkNum c = alloc.allocate();
    alloc.release(b);

    InvariantAuditor::ChunkCrossCheck xc;
    AuditReport rep;
    xc.mapChunk(1, a, rep);
    xc.mapChunk(2, c, rep);
    xc.finish(alloc, rep);
    EXPECT_TRUE(rep.clean()) << rep.summary();

    // Mapping the released chunk as well: use-after-release.
    InvariantAuditor::ChunkCrossCheck xc2;
    AuditReport rep2;
    xc2.mapChunk(1, a, rep2);
    xc2.mapChunk(2, c, rep2);
    xc2.mapChunk(3, b, rep2);
    xc2.finish(alloc, rep2);
    EXPECT_EQ(rep2.count(ViolationKind::kChunkDead), 1u)
        << rep2.summary();
}

TEST(ChunkCrossCheck, ReportsEveryLeakedChunkById)
{
    ChunkAllocator alloc(16 * kChunkBytes);
    alloc.allocate();
    alloc.allocate();
    InvariantAuditor::ChunkCrossCheck xc;
    AuditReport rep;
    xc.finish(alloc, rep);
    EXPECT_EQ(rep.count(ViolationKind::kChunkLeak), 2u);
}

TEST(AuditReportTest, SummaryNamesKindPageAndChunk)
{
    AuditReport rep;
    rep.add(ViolationKind::kChunkLeak, kNoPage, 42, "orphan");
    rep.add(ViolationKind::kStaleFreeSpace, 7, kNoChunk, "off by 64");
    std::string s = rep.summary();
    EXPECT_NE(s.find("chunk_leak"), std::string::npos);
    EXPECT_NE(s.find("chunk 42"), std::string::npos);
    EXPECT_NE(s.find("stale_free_space"), std::string::npos);
    EXPECT_NE(s.find("page 7"), std::string::npos);
    EXPECT_EQ(rep.count(ViolationKind::kChunkLeak), 1u);
    EXPECT_EQ(rep.count(ViolationKind::kOvercommit), 0u);
}
