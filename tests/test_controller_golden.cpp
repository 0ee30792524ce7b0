/**
 * @file
 * Golden behaviour lock for the three compressed controllers.
 *
 * One seeded sequence of datagen writebacks, fills and page frees is
 * driven through each controller with a fault injector and a pressure
 * listener attached, in a machine small enough that allocations run
 * out of chunks. The test pins, per controller:
 *
 *  - an FNV-1a digest of every McTrace (each op's addr, write,
 *    critical and comp; fixed_by_comp; stall_cycles; co_fetched),
 *    together with the data every fill returned and the cost reports
 *    the controller sent to the pressure listener;
 *  - a digest of the sorted `mc` stat map (key set and values);
 *  - ospaBytes, mpaDataBytes and mpaMetadataBytes at the end;
 *  - a clean audit().
 *
 * The base run's metadata cache holds every page. Two ladder runs
 * repeat the sequence with a 1 KB metadata cache, with recovery on and
 * off, so dirty entries are written back on eviction and metadata
 * faults walk the whole degradation ladder (rebuild, throttled
 * rebuild, safety inflation, page poison).
 *
 * A re-layout run drives adversarial rewrites, which flip lines between
 * zero, constant and random data, through fewer pages for four times
 * as many ops. It reaches the overflow paths the other runs miss:
 * Compresso's in-place slot growth, escalation, predictor inflation,
 * dynamic inflation-room expansion and repacking, LCP's page overflow,
 * and RMC's hysteresis absorbs and subpage shifts.
 *
 * A page-rewrite run adds whole-page rewrites, all zero or all random,
 * to the re-layout run and sizes Compresso's pages to the four
 * variable sizes. It reaches the sizing paths the other runs miss:
 * Compresso's relocating free slot growth and its repack to a zero
 * page.
 *
 * The base constants were recorded from the controllers as they stood
 * before their shared chunk code moved into ChunkStore, the ladder
 * constants before their metadata paths moved into MetadataFrontEnd,
 * the re-layout constants before the controllers' slot format and
 * page gather moved into CompressedController, the page-rewrite
 * constants before their page sizing and slot reads moved there; any
 * change to layout, device-op emission, OOM rescue, metadata access or
 * fault handling moves at least one of them.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/compresso_controller.h"
#include "core/lcp_controller.h"
#include "core/pressure_hooks.h"
#include "core/rmc_controller.h"
#include "fault/fault_injector.h"
#include "workloads/datagen.h"

using namespace compresso;

namespace {

constexpr uint64_t kSeed = 20240613;
constexpr unsigned kOps = 6000;
constexpr PageNum kPages = 40;
/** 96 chunks: a dozen incompressible pages fill the machine. */
constexpr uint64_t kInstalledBytes = 96 * kChunkBytes;

class Fnv
{
  public:
    void
    add(uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ULL;
        }
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

/**
 * Deterministic stand-in for the pressure governor. An OOM is rescued
 * by freeing the next page (round robin) that holds chunks and is not
 * busy. For Compresso every third OOM while growing a page that
 * already holds chunks is declined instead, so machine_oom fires:
 * those growth sites survive a failed allocation (the write is dropped
 * or the page keeps its layout). A page's first allocation, and every
 * baseline layout path, stores into the chunks it asked for, so those
 * are always rescued. Every fourth admission is denied, which drives
 * the throttled and escalation paths, and every reported cost is
 * hashed.
 */
class ScriptedPressure : public PressureListener
{
  public:
    ScriptedPressure(MemoryController &mc, PageNum pages, bool may_decline,
                     unsigned deny_every, Fnv &costs)
        : mc_(mc), pages_(pages), may_decline_(may_decline),
          deny_every_(deny_every), costs_(costs)
    {
    }

    bool
    onMachineOom(PageNum busy_page) override
    {
        if (may_decline_ && mc_.pageCompressedBytes(busy_page) > 0 &&
            ++declinable_ % 3 == 0)
            return false;
        for (PageNum i = 0; i < pages_; ++i) {
            PageNum p = (cursor_ + i) % pages_;
            if (p == busy_page || mc_.pageBusy(p) ||
                mc_.pageCompressedBytes(p) == 0)
                continue;
            cursor_ = (p + 1) % pages_;
            mc_.freePage(p);
            return true;
        }
        return false;
    }

    bool
    admitOp(PressureOp op, uint64_t est_ops) override
    {
        costs_.add(uint64_t(op));
        costs_.add(est_ops);
        return ++admits_ % deny_every_ != 0;
    }

    void
    onOpCost(PressureOp op, uint64_t ops) override
    {
        costs_.add(uint64_t(op) + 16);
        costs_.add(ops);
    }

  private:
    MemoryController &mc_;
    PageNum pages_;
    bool may_decline_;
    unsigned deny_every_;
    Fnv &costs_;
    PageNum cursor_ = 0;
    uint64_t declinable_ = 0;
    uint64_t admits_ = 0;
};

/** Metadata-cache (RMC: BST) size of the base run. It holds all
 *  kPages entries, so that run makes no metadata-cache evictions. */
constexpr size_t kBaseMdcacheBytes = 4 * 1024;
/** Metadata-cache size of the ladder runs: 16 entries for 40 pages,
 *  so entries are evicted dirty and refetched throughout, and every
 *  refetch exposes the entry to a metadata fault. */
constexpr size_t kLadderMdcacheBytes = 1024;

/** What a seeded run varies. The defaults are the base run's. */
struct RunShape
{
    size_t mdcache_bytes = kBaseMdcacheBytes;
    bool recover = true;
    unsigned ops = kOps;
    PageNum pages = kPages;
    uint64_t installed_bytes = kInstalledBytes;
    /** Every deny_every-th admission is denied. */
    unsigned deny_every = 4;
    /** Written lines are zero (1/4), constant (1/4) or random (1/2)
     *  instead of any datagen class. */
    bool adversarial = false;
    /** 2 % of the ops (taken from the fills) rewrite a whole page, all
     *  zero or all random, and the run counts the reach of the paths
     *  that follows (RunResult::Reach). */
    bool page_rewrites = false;
    PageSizing compresso_sizing = PageSizing::kChunked512;
};

/** The re-layout run: 24 pages, so a 1 KB metadata cache evicts and
 *  Compresso repacks; 24k ops, so pages live long enough to overflow
 *  repeatedly; and every third admission denied, so escalations are
 *  common. Compresso runs in 48 chunks, so its inflation-room
 *  expansions run out of memory and fall through to in-place slot
 *  growth; the others in 256, so OOM frees do not keep their pages
 *  from overflowing. */
RunShape
relayoutShape(const std::string &kind)
{
    return {.mdcache_bytes = kLadderMdcacheBytes,
            .ops = 24000,
            .pages = 24,
            .installed_bytes = (kind == "compresso" ? 48 : 256) * kChunkBytes,
            .deny_every = 3,
            .adversarial = true};
}

/** The page-rewrite run: the re-layout run with whole-page rewrites,
 *  Compresso's pages in the four variable sizes. */
RunShape
pageRewriteShape(const std::string &kind)
{
    RunShape shape = relayoutShape(kind);
    shape.page_rewrites = true;
    shape.compresso_sizing = PageSizing::kVariable4;
    return shape;
}

std::unique_ptr<MemoryController>
makeController(const std::string &kind, const RunShape &shape)
{
    if (kind == "compresso") {
        CompressoConfig cfg;
        cfg.installed_bytes = shape.installed_bytes;
        cfg.mdcache.size_bytes = shape.mdcache_bytes;
        cfg.page_sizing = shape.compresso_sizing;
        return std::make_unique<CompressoController>(cfg);
    }
    if (kind == "lcp") {
        LcpConfig cfg;
        cfg.installed_bytes = shape.installed_bytes;
        cfg.mdcache.size_bytes = shape.mdcache_bytes;
        return std::make_unique<LcpController>(cfg);
    }
    RmcConfig cfg;
    cfg.installed_bytes = shape.installed_bytes;
    cfg.bst.size_bytes = shape.mdcache_bytes;
    return std::make_unique<RmcController>(cfg);
}

void
hashTrace(Fnv &h, const McTrace &tr)
{
    h.add(tr.ops.size());
    for (const DramOp &op : tr.ops) {
        h.add(op.addr);
        h.add(uint64_t(op.write) | uint64_t(op.critical) << 1 |
              uint64_t(op.comp) << 2);
    }
    for (Cycle c : tr.fixed_by_comp)
        h.add(c);
    h.add(tr.stall_cycles);
    h.add(tr.co_fetched.size());
    for (Addr a : tr.co_fetched)
        h.add(a);
}

struct Golden
{
    const char *kind;
    uint64_t trace_digest;
    uint64_t stats_digest;
    uint64_t ospa_bytes;
    uint64_t mpa_data_bytes;
    uint64_t mpa_metadata_bytes;
};

// Recorded from the controllers before the ChunkStore extraction.
// RMC's rows in every table were re-recorded when a page's first
// layout stopped asking for relocation admission: fewer denials turn
// a first write into a raw 4 KB page, so fewer machine OOMs reclaim
// pages.
constexpr Golden kGolden[] = {
    {"compresso", 0x400892e6a14d10f3ULL, 0x8fbdcafdc3e8d58cULL, 151552,
     49152, 2368},
    {"lcp", 0x8f0fb5b43a9aa29dULL, 0x77a80be63161d123ULL, 57344, 49152,
     896},
    {"rmc", 0x25ca198006fe882bULL, 0x2ab6c7ea0fba857bULL, 147456, 44544,
     2304},
};

// Ladder runs (kLadderMdcacheBytes), recorded from the controllers
// before their metadata paths moved into MetadataFrontEnd: with
// recovery on, then with recovery off.
constexpr Golden kLadderRecover[] = {
    {"compresso", 0x0f6c824e3535a116ULL, 0xddbc020bb5fa6cf9ULL, 147456,
     43008, 2304},
    {"lcp", 0x4a49bcde6e556074ULL, 0xb7e327b916eef7c1ULL, 57344, 49152,
     896},
    {"rmc", 0x2930d239d74cf4c6ULL, 0xb58f8ef458299abdULL, 135168, 47104,
     2112},
};
constexpr Golden kLadderPoison[] = {
    {"compresso", 0xdaf1d13f331ff4fcULL, 0x430ba3fd8bbf8dc4ULL, 151552,
     25600, 2368},
    {"lcp", 0x4a42b28f0c143513ULL, 0x9e47b47735523369ULL, 73728, 49152,
     1152},
    {"rmc", 0x49abf2f7898e24c7ULL, 0xa18972129ec21ac9ULL, 143360, 48128,
     2240},
};

// Re-layout runs (relayoutShape), recorded from the controllers
// before their slot format and page gather moved into
// CompressedController.
constexpr Golden kRelayout[] = {
    {"compresso", 0x0cfd1781602b7f69ULL, 0x9a9934c2143c8e33ULL, 94208,
     24064, 1472},
    {"lcp", 0xca95c28f3a1bc473ULL, 0xcafa6fa6dba70454ULL, 98304, 88064,
     1536},
    {"rmc", 0xe42e17e1fccd6e56ULL, 0x9ee77063b43c84c0ULL, 98304, 84992,
     1536},
};

// Page-rewrite runs (pageRewriteShape), recorded from the controllers
// before their page sizing and slot reads moved into
// CompressedController. Compresso's row was re-recorded when
// Compresso stopped recording the bin of a write machine OOM dropped
// (fewer line underflows, same op trace).
constexpr Golden kPageRewrite[] = {
    {"compresso", 0x7971b1900bb6abacULL, 0x00642428ead6ad4dULL, 98304,
     23040, 1536},
    {"lcp", 0x664cfccea0061e6eULL, 0x7253e339bc0df742ULL, 98304, 90112,
     1536},
    {"rmc", 0x16ffbbb28b7341acULL, 0x52709c6bec735b46ULL, 98304, 81920,
     1536},
};

/** What one seeded run left behind. */
struct RunResult
{
    /** Paths no counter tells apart, counted from page state (only
     *  with RunShape::page_rewrites). */
    struct Reach
    {
        /** Compresso pages that held chunks and then were zero pages:
         *  repack's zero exit, the only path that does that. */
        uint64_t zero_repacks = 0;
    };

    std::unique_ptr<MemoryController> mc;
    uint64_t trace_digest = 0;
    uint64_t stats_digest = 0;
    std::string stats_text;
    Reach reach;
};

/** Tracks the page state RunResult::Reach counts. */
class ReachProbe
{
  public:
    ReachProbe(MemoryController &mc, PageNum pages)
        : compresso_(dynamic_cast<CompressoController *>(&mc)),
          held_(pages, false)
    {
    }

    /** After each op. */
    void
    after(const MemoryController &mc, RunResult::Reach &reach)
    {
        if (compresso_ == nullptr)
            return;
        for (PageNum p = 0; p < held_.size(); ++p) {
            // pageMeta inserts an absent page; a held page is present.
            if (held_[p] && compresso_->pageMeta(p).valid &&
                compresso_->pageMeta(p).zero)
                ++reach.zero_repacks;
            held_[p] = mc.pageCompressedBytes(p) > 0;
        }
    }

  private:
    CompressoController *compresso_;
    /** Compresso pages holding chunks after the last op. */
    std::vector<bool> held_;
};

/** Drive the seeded sequence through a fresh @p kind controller. */
RunResult
seededRun(const std::string &kind, const RunShape &shape)
{
    RunResult r;
    r.mc = makeController(kind, shape);
    MemoryController &mc = *r.mc;

    FaultConfig fc;
    fc.seed = kSeed;
    fc.data_bit_rate = 2e-4;
    fc.meta_bit_rate = 2e-4;
    fc.double_bit_frac = 0.5;
    fc.recover = shape.recover;
    FaultInjector fi(fc);
    mc.attachFaultInjector(&fi);

    Fnv trace_h;
    ScriptedPressure pressure(mc, shape.pages, kind == "compresso",
                              shape.deny_every, trace_h);
    mc.attachPressureListener(&pressure);

    ReachProbe probe(mc, shape.pages);
    // One writeback, with its reach tracked in a page-rewrite run.
    auto writeback = [&](Addr a, DataClass c, uint64_t seed) {
        Line d;
        generateLine(c, seed, d);
        McTrace tr;
        mc.writebackLine(a, d, tr);
        if (shape.page_rewrites)
            probe.after(mc, r.reach);
        hashTrace(trace_h, tr);
    };

    Rng rng(kSeed);
    const double fill_end = shape.page_rewrites ? 0.97 : 0.99;
    for (unsigned i = 0; i < shape.ops; ++i) {
        Addr a = Addr(rng.below(shape.pages)) * kPageBytes +
                 Addr(rng.below(kLinesPerPage)) * kLineBytes;
        double u = rng.uniform();
        if (u < 0.55) {
            static constexpr DataClass kFlips[] = {
                DataClass::kZero, DataClass::kConstant, DataClass::kRandom,
                DataClass::kRandom};
            // The seed is drawn before the class, the order in which
            // the recorded runs drew them.
            uint64_t seed = rng.next();
            DataClass c = shape.adversarial
                              ? kFlips[rng.below(4)]
                              : DataClass(rng.below(kNumDataClasses));
            writeback(a, c, seed);
            continue;
        }
        if (u >= fill_end && u < 0.99) {
            DataClass c = rng.below(2) ? DataClass::kRandom : DataClass::kZero;
            Addr base = pageOf(a) * kPageBytes;
            for (LineIdx l = 0; l < kLinesPerPage; ++l)
                writeback(base + Addr(l) * kLineBytes, c, rng.next());
            continue;
        }
        McTrace tr;
        if (u < fill_end) {
            Line d;
            mc.fillLine(a, d, tr);
            for (size_t w = 0; w < kLineBytes; w += 8) {
                uint64_t v = 0;
                for (size_t b = 0; b < 8; ++b)
                    v |= uint64_t(d[w + b]) << (8 * b);
                trace_h.add(v);
            }
        } else {
            mc.freePage(pageOf(a));
        }
        if (shape.page_rewrites)
            probe.after(mc, r.reach);
        hashTrace(trace_h, tr);
    }
    mc.attachPressureListener(nullptr);
    mc.attachFaultInjector(nullptr);

    Fnv stats_h;
    std::ostringstream stats_text;
    for (const auto &[key, value] : mc.stats().counters()) {
        for (char c : key)
            stats_h.add(uint8_t(c));
        stats_h.add(value);
        stats_text << key << '=' << value << '\n';
    }
    r.trace_digest = trace_h.value();
    r.stats_digest = stats_h.value();
    r.stats_text = stats_text.str();
    return r;
}

/** Compare a run with the @p kind row of @p table. */
template <size_t N>
void
expectGolden(const RunResult &r, const std::string &kind,
             const Golden (&table)[N])
{
    const Golden *g = nullptr;
    for (const Golden &row : table)
        if (kind == row.kind)
            g = &row;
    ASSERT_NE(g, nullptr);
    const MemoryController &mc = *r.mc;
    char actual[256];
    std::snprintf(actual, sizeof(actual),
                  "{\"%s\", 0x%016llxULL, 0x%016llxULL, %llu, %llu, %llu}",
                  kind.c_str(),
                  static_cast<unsigned long long>(r.trace_digest),
                  static_cast<unsigned long long>(r.stats_digest),
                  static_cast<unsigned long long>(mc.ospaBytes()),
                  static_cast<unsigned long long>(mc.mpaDataBytes()),
                  static_cast<unsigned long long>(mc.mpaMetadataBytes()));
    EXPECT_EQ(r.trace_digest, g->trace_digest) << "actual row: " << actual;
    EXPECT_EQ(r.stats_digest, g->stats_digest)
        << "actual row: " << actual << "\n" << r.stats_text;
    EXPECT_EQ(mc.ospaBytes(), g->ospa_bytes) << "actual row: " << actual;
    EXPECT_EQ(mc.mpaDataBytes(), g->mpa_data_bytes)
        << "actual row: " << actual;
    EXPECT_EQ(mc.mpaMetadataBytes(), g->mpa_metadata_bytes)
        << "actual row: " << actual;
}

} // namespace

class ControllerGolden : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ControllerGolden, SeededRunMatchesRecordedDigests)
{
    const std::string kind = GetParam();
    RunResult r = seededRun(kind, RunShape{});

    AuditReport rep = r.mc->audit();
    EXPECT_TRUE(rep.clean()) << rep.summary();
    EXPECT_EQ(r.mc->metadataCache()->stats().get("evictions"), 0u);

    // The run must reach the paths it is meant to lock.
    const StatGroup &st = r.mc->stats();
    EXPECT_GT(st.get("oom_rescues"), 0u) << r.stats_text;
    EXPECT_GT(st.get("fault_lines_poisoned"), 0u) << r.stats_text;
    EXPECT_GT(st.get("fault_recovery_ops"), 0u) << r.stats_text;
    if (kind == "compresso") {
        EXPECT_GT(st.get("machine_oom"), 0u) << r.stats_text;
    }
    expectGolden(r, kind, kGolden);
}

/**
 * The metadata degradation ladder (DESIGN.md §9) under a metadata
 * cache too small for the pages: dirty-entry writebacks, bounded
 * rebuilds, watchdog-throttled rebuilds and safety inflations with
 * recovery on; page poisoning with recovery off.
 */
TEST_P(ControllerGolden, LadderRunsMatchRecordedDigests)
{
    const std::string kind = GetParam();
    {
        SCOPED_TRACE("recovery on");
        RunResult r = seededRun(kind, {.mdcache_bytes = kLadderMdcacheBytes});
        AuditReport rep = r.mc->audit();
        EXPECT_TRUE(rep.clean()) << rep.summary();
        const StatGroup &st = r.mc->stats();
        EXPECT_GT(r.mc->metadataCache()->stats().get("evictions"), 0u);
        EXPECT_GT(st.get("fault_meta_rebuilds"), 0u) << r.stats_text;
        EXPECT_GT(st.get("fault_rebuilds_throttled"), 0u) << r.stats_text;
        EXPECT_GT(st.get("fault_pages_inflated"), 0u) << r.stats_text;
        EXPECT_GT(st.get("md_write_ops"), st.get("fault_meta_rebuilds"))
            << r.stats_text;
        expectGolden(r, kind, kLadderRecover);
    }
    {
        SCOPED_TRACE("recovery off");
        RunResult r = seededRun(
            kind, {.mdcache_bytes = kLadderMdcacheBytes, .recover = false});
        AuditReport rep = r.mc->audit();
        EXPECT_TRUE(rep.clean()) << rep.summary();
        const StatGroup &st = r.mc->stats();
        EXPECT_GT(r.mc->metadataCache()->stats().get("evictions"), 0u);
        EXPECT_GT(st.get("fault_pages_poisoned"), 0u) << r.stats_text;
        EXPECT_EQ(st.get("fault_meta_rebuilds"), 0u) << r.stats_text;
        expectGolden(r, kind, kLadderPoison);
    }
}

/**
 * The re-layout run (relayoutShape) reaches every overflow path of
 * each controller at least once.
 */
TEST_P(ControllerGolden, RelayoutRunMatchesRecordedDigests)
{
    const std::string kind = GetParam();
    RunResult r = seededRun(kind, relayoutShape(kind));
    AuditReport rep = r.mc->audit();
    EXPECT_TRUE(rep.clean()) << rep.summary();

    static const std::map<std::string, std::vector<const char *>> kReach =
        {{"compresso",
          {"slot_growths", "overflow_escalations", "repacks",
           "predictor_inflations", "dyn_ir_expansions"}},
         {"lcp", {"page_overflows", "overflow_escalations"}},
         {"rmc",
          {"subpage_shifts", "hysteresis_absorbs", "overflow_escalations"}}};
    const StatGroup &st = r.mc->stats();
    for (const char *stat : kReach.at(kind))
        EXPECT_GT(st.get(stat), 0u) << stat << "\n" << r.stats_text;
    expectGolden(r, kind, kRelayout);
}

/**
 * The page-rewrite run (pageRewriteShape) reaches the sizing paths the
 * other runs miss (RunResult::Reach).
 */
TEST_P(ControllerGolden, PageRewriteRunMatchesRecordedDigests)
{
    const std::string kind = GetParam();
    RunResult r = seededRun(kind, pageRewriteShape(kind));
    AuditReport rep = r.mc->audit();
    EXPECT_TRUE(rep.clean()) << rep.summary();

    const StatGroup &st = r.mc->stats();
    if (kind == "compresso") {
        // Under the variable sizes every free page grow of a page that
        // holds chunks relocates it.
        EXPECT_GT(st.get("free_page_grows"), 0u) << r.stats_text;
        EXPECT_GT(r.reach.zero_repacks, 0u) << r.stats_text;
    }
    expectGolden(r, kind, kPageRewrite);
}

INSTANTIATE_TEST_SUITE_P(CompressedControllers, ControllerGolden,
                         ::testing::Values("compresso", "lcp", "rmc"),
                         [](const auto &info) { return info.param; });
