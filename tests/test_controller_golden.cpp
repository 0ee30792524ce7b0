/**
 * @file
 * Golden behaviour lock for the four compressed controllers.
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
 * The constants were recorded from the controllers as they stood
 * before their shared chunk code moved into ChunkStore; any change to
 * layout, device-op emission, OOM rescue or fault handling moves at
 * least one of them. No bench runs DMC, so for it this test and the
 * chaos soak are the only end-to-end lock.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>

#include "core/compresso_controller.h"
#include "core/dmc_controller.h"
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
    ScriptedPressure(MemoryController &mc, bool may_decline, Fnv &costs)
        : mc_(mc), may_decline_(may_decline), costs_(costs)
    {
    }

    bool
    onMachineOom(PageNum busy_page) override
    {
        if (may_decline_ && mc_.pageCompressedBytes(busy_page) > 0 &&
            ++declinable_ % 3 == 0)
            return false;
        for (PageNum i = 0; i < kPages; ++i) {
            PageNum p = (cursor_ + i) % kPages;
            if (p == busy_page || mc_.pageBusy(p) ||
                mc_.pageCompressedBytes(p) == 0)
                continue;
            cursor_ = (p + 1) % kPages;
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
        return ++admits_ % 4 != 0;
    }

    void
    onOpCost(PressureOp op, uint64_t ops) override
    {
        costs_.add(uint64_t(op) + 16);
        costs_.add(ops);
    }

  private:
    MemoryController &mc_;
    bool may_decline_;
    Fnv &costs_;
    PageNum cursor_ = 0;
    uint64_t declinable_ = 0;
    uint64_t admits_ = 0;
};

std::unique_ptr<MemoryController>
makeController(const std::string &kind)
{
    if (kind == "compresso") {
        CompressoConfig cfg;
        cfg.installed_bytes = kInstalledBytes;
        cfg.mdcache.size_bytes = 4 * 1024; // evictions and repacks
        return std::make_unique<CompressoController>(cfg);
    }
    if (kind == "lcp") {
        LcpConfig cfg;
        cfg.installed_bytes = kInstalledBytes;
        cfg.mdcache.size_bytes = 4 * 1024;
        return std::make_unique<LcpController>(cfg);
    }
    if (kind == "rmc") {
        RmcConfig cfg;
        cfg.installed_bytes = kInstalledBytes;
        cfg.bst.size_bytes = 4 * 1024;
        return std::make_unique<RmcController>(cfg);
    }
    DmcConfig cfg;
    cfg.installed_bytes = kInstalledBytes;
    cfg.mdcache.size_bytes = 4 * 1024;
    cfg.epoch_writebacks = 256; // demotions within the run
    return std::make_unique<DmcController>(cfg);
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
constexpr Golden kGolden[] = {
    {"compresso", 0x400892e6a14d10f3ULL, 0x8fbdcafdc3e8d58cULL, 151552,
     49152, 2368},
    {"lcp", 0x8f0fb5b43a9aa29dULL, 0x77a80be63161d123ULL, 57344, 49152,
     896},
    {"rmc", 0x2700af20471c579bULL, 0x7b9f64564357c717ULL, 114688, 47104,
     1792},
    {"dmc", 0x12bdbd55f5a7be86ULL, 0x9e3f62d116f16f90ULL, 151552, 43520,
     2368},
};

} // namespace

class ControllerGolden : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ControllerGolden, SeededRunMatchesRecordedDigests)
{
    const std::string kind = GetParam();
    std::unique_ptr<MemoryController> mc = makeController(kind);

    FaultConfig fc;
    fc.seed = kSeed;
    fc.data_bit_rate = 2e-4;
    fc.meta_bit_rate = 2e-4;
    fc.double_bit_frac = 0.5;
    FaultInjector fi(fc);
    mc->attachFaultInjector(&fi);

    Fnv trace_h;
    ScriptedPressure pressure(*mc, kind == "compresso", trace_h);
    mc->attachPressureListener(&pressure);

    Rng rng(kSeed);
    for (unsigned i = 0; i < kOps; ++i) {
        Addr a = Addr(rng.below(kPages)) * kPageBytes +
                 Addr(rng.below(kLinesPerPage)) * kLineBytes;
        McTrace tr;
        double u = rng.uniform();
        if (u < 0.55) {
            Line d;
            generateLine(DataClass(rng.below(kNumDataClasses)),
                         rng.next(), d);
            mc->writebackLine(a, d, tr);
        } else if (u < 0.99) {
            Line d;
            mc->fillLine(a, d, tr);
            for (size_t w = 0; w < kLineBytes; w += 8) {
                uint64_t v = 0;
                for (size_t b = 0; b < 8; ++b)
                    v |= uint64_t(d[w + b]) << (8 * b);
                trace_h.add(v);
            }
        } else {
            mc->freePage(pageOf(a));
        }
        hashTrace(trace_h, tr);
    }
    mc->attachPressureListener(nullptr);
    mc->attachFaultInjector(nullptr);

    Fnv stats_h;
    std::ostringstream stats_text;
    for (const auto &[key, value] : mc->stats().counters()) {
        for (char c : key)
            stats_h.add(uint8_t(c));
        stats_h.add(value);
        stats_text << key << '=' << value << '\n';
    }

    AuditReport rep = mc->audit();
    EXPECT_TRUE(rep.clean()) << rep.summary();

    // The run must reach the paths it is meant to lock.
    const StatGroup &st = mc->stats();
    EXPECT_GT(st.get("oom_rescues"), 0u) << stats_text.str();
    EXPECT_GT(st.get("fault_lines_poisoned"), 0u) << stats_text.str();
    EXPECT_GT(st.get("fault_recovery_ops"), 0u) << stats_text.str();
    if (kind == "compresso") {
        EXPECT_GT(st.get("machine_oom"), 0u) << stats_text.str();
    }

    const Golden *g = nullptr;
    for (const Golden &row : kGolden)
        if (kind == row.kind)
            g = &row;
    ASSERT_NE(g, nullptr);
    char actual[256];
    std::snprintf(actual, sizeof(actual),
                  "{\"%s\", 0x%016llxULL, 0x%016llxULL, %llu, %llu, %llu}",
                  kind.c_str(),
                  static_cast<unsigned long long>(trace_h.value()),
                  static_cast<unsigned long long>(stats_h.value()),
                  static_cast<unsigned long long>(mc->ospaBytes()),
                  static_cast<unsigned long long>(mc->mpaDataBytes()),
                  static_cast<unsigned long long>(mc->mpaMetadataBytes()));
    EXPECT_EQ(trace_h.value(), g->trace_digest) << "actual row: " << actual;
    EXPECT_EQ(stats_h.value(), g->stats_digest)
        << "actual row: " << actual << "\n" << stats_text.str();
    EXPECT_EQ(mc->ospaBytes(), g->ospa_bytes) << "actual row: " << actual;
    EXPECT_EQ(mc->mpaDataBytes(), g->mpa_data_bytes)
        << "actual row: " << actual;
    EXPECT_EQ(mc->mpaMetadataBytes(), g->mpa_metadata_bytes)
        << "actual row: " << actual;
}

INSTANTIATE_TEST_SUITE_P(CompressedControllers, ControllerGolden,
                         ::testing::Values("compresso", "lcp", "rmc",
                                           "dmc"),
                         [](const auto &info) { return info.param; });
