/**
 * @file
 * Graceful-degradation tests: detected-uncorrectable faults walk the
 * ladder (correct -> rebuild metadata -> inflate to the safe state ->
 * poison) in every controller, poisoned lines heal on rewrite, and
 * recovery-off campaigns retire pages instead. Also covers the
 * system-level determinism guarantee (two identical fault campaigns
 * through runSystem produce identical ReliabilityReports) and — in
 * builds with both COMPRESSO_CHECKED_BUILD and COMPRESSO_FAULT_RECOVERY
 * — the audit-caught-corruption degrade path.
 */

#include <gtest/gtest.h>

#include "core/compresso_controller.h"
#include "core/lcp_controller.h"
#include "core/rmc_controller.h"
#include "core/uncompressed_controller.h"
#include "sim/runner.h"
#include "workloads/datagen.h"

using namespace compresso;

namespace {

/** Every exposed *data* read suffers a double-bit upset (a DUE:
 *  p_event = min(1, 512 * rate) = 1 and every event flips two bits). */
FaultConfig
everyDataReadFaults()
{
    FaultConfig cfg;
    cfg.data_bit_rate = 1.0;
    cfg.double_bit_frac = 1.0;
    return cfg;
}

/** Every metadata fetch suffers a DUE; data reads are clean. */
FaultConfig
everyMetaFetchFaults()
{
    FaultConfig cfg;
    cfg.meta_bit_rate = 1.0;
    cfg.double_bit_frac = 1.0;
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
writeLine(MemoryController &mc, Addr a, const Line &data)
{
    McTrace tr;
    mc.writebackLine(a, data, tr);
}

Line
readLine(MemoryController &mc, Addr a, McTrace *out_trace = nullptr)
{
    Line data;
    McTrace tr;
    mc.fillLine(a, data, tr);
    if (out_trace)
        *out_trace = tr;
    return data;
}

CompressoConfig
compressoConfig()
{
    CompressoConfig cfg;
    cfg.installed_bytes = uint64_t(32) << 20;
    return cfg;
}

} // namespace

// ---------------------------------------------------------------------
// Data DUEs: poison the line, serve zeros, heal on rewrite.
// ---------------------------------------------------------------------

TEST(CompressoFaults, DataDuePoisonsLineAndHealsOnRewrite)
{
    CompressoController mc(compressoConfig());
    FaultInjector fi(everyDataReadFaults());
    mc.attachFaultInjector(&fi);

    Line in = classLine(DataClass::kDeltaInt, 7);
    writeLine(mc, addrOf(1, 3), in); // writes scrub: no fault yet

    // The demand read is exposed, takes a DUE, and the line is retired.
    McTrace tr;
    Line out = readLine(mc, addrOf(1, 3), &tr);
    EXPECT_TRUE(isZeroLine(out));
    EXPECT_EQ(mc.stats().get("fault_lines_poisoned"), 1u);
    EXPECT_GE(fi.report().detected_uncorrectable, 1u);
    EXPECT_EQ(fi.report().lines_poisoned, 1u);
    EXPECT_GT(fi.report().recovery_device_ops, 0u);

    // Subsequent fills serve the poison value without re-firing.
    EXPECT_TRUE(isZeroLine(readLine(mc, addrOf(1, 3))));
    EXPECT_EQ(mc.stats().get("fault_poison_fills"), 1u);
    EXPECT_EQ(mc.stats().get("fault_lines_poisoned"), 1u);

    // Untouched lines of other pages still read zero (metadata-only,
    // never exposed to data faults).
    EXPECT_TRUE(isZeroLine(readLine(mc, addrOf(2, 0))));

    // A writeback rewrites (scrubs) the line and heals the poison.
    writeLine(mc, addrOf(1, 3), in);
    mc.attachFaultInjector(nullptr); // stop injecting; read real data
    EXPECT_EQ(readLine(mc, addrOf(1, 3)), in);
    AuditReport rep = mc.audit();
    EXPECT_TRUE(rep.clean()) << rep.summary();
}

TEST(UncompressedFaults, DataDuePoisonsLineAndHealsOnRewrite)
{
    UncompressedController mc;
    FaultInjector fi(everyDataReadFaults());
    mc.attachFaultInjector(&fi);

    Line in = classLine(DataClass::kText, 9);
    writeLine(mc, addrOf(4, 1), in);
    EXPECT_TRUE(isZeroLine(readLine(mc, addrOf(4, 1))));
    EXPECT_EQ(mc.stats().get("fault_lines_poisoned"), 1u);
    EXPECT_TRUE(isZeroLine(readLine(mc, addrOf(4, 1))));
    EXPECT_EQ(mc.stats().get("fault_poison_fills"), 1u);

    writeLine(mc, addrOf(4, 1), in);
    mc.attachFaultInjector(nullptr);
    EXPECT_EQ(readLine(mc, addrOf(4, 1)), in);
}

TEST(RmcFaults, DataDuePoisonsLineAndHealsOnRewrite)
{
    RmcConfig cfg;
    cfg.installed_bytes = uint64_t(32) << 20;
    RmcController mc(cfg);
    FaultInjector fi(everyDataReadFaults());
    mc.attachFaultInjector(&fi);

    Line in = classLine(DataClass::kFloat, 33);
    writeLine(mc, addrOf(3, 7), in);
    EXPECT_TRUE(isZeroLine(readLine(mc, addrOf(3, 7))));
    EXPECT_EQ(mc.stats().get("fault_lines_poisoned"), 1u);

    writeLine(mc, addrOf(3, 7), in);
    mc.attachFaultInjector(nullptr);
    EXPECT_EQ(readLine(mc, addrOf(3, 7)), in);
    AuditReport rep = mc.audit();
    EXPECT_TRUE(rep.clean()) << rep.summary();
}

TEST(LcpFaults, DataDuePoisonsLineAndHealsOnRewrite)
{
    LcpConfig cfg;
    cfg.installed_bytes = uint64_t(32) << 20;
    LcpController mc(cfg);
    FaultInjector fi(everyDataReadFaults());
    mc.attachFaultInjector(&fi);

    Line in = classLine(DataClass::kDeltaInt, 55);
    writeLine(mc, addrOf(6, 2), in);
    EXPECT_TRUE(isZeroLine(readLine(mc, addrOf(6, 2))));
    EXPECT_EQ(mc.stats().get("fault_lines_poisoned"), 1u);

    writeLine(mc, addrOf(6, 2), in);
    mc.attachFaultInjector(nullptr);
    EXPECT_EQ(readLine(mc, addrOf(6, 2)), in);
    AuditReport rep = mc.audit();
    EXPECT_TRUE(rep.clean()) << rep.summary();
}

// ---------------------------------------------------------------------
// Metadata DUEs: bounded rebuilds, then escalation to the safe state.
// ---------------------------------------------------------------------

TEST(CompressoFaults, MetadataDueRebuildsThenInflates)
{
    CompressoController mc(compressoConfig());
    FaultInjector fi(everyMetaFetchFaults());
    mc.attachFaultInjector(&fi);

    // Every metadata-cache miss fetches the entry from the device and
    // takes a DUE; invalidating the cached entry forces misses.
    const PageNum pn = 1;
    Line in = classLine(DataClass::kDeltaInt, 11);
    writeLine(mc, addrOf(pn, 0), in); // miss -> rebuild #1 (fresh entry)
    EXPECT_EQ(mc.stats().get("fault_meta_rebuilds"), 1u);

    mc.metadataCache()->invalidate(pn);
    EXPECT_EQ(readLine(mc, addrOf(pn, 0)), in); // rebuild #2
    EXPECT_EQ(mc.stats().get("fault_meta_rebuilds"), 2u);
    EXPECT_EQ(mc.stats().get("fault_pages_inflated"), 0u);

    // Third rebuild exceeds max_meta_rebuilds (2): the page escalates
    // to uncompressed 4 KB, the safe state whose identity layout no
    // longer depends on fragile metadata fields.
    mc.metadataCache()->invalidate(pn);
    EXPECT_EQ(readLine(mc, addrOf(pn, 0)), in);
    EXPECT_EQ(mc.stats().get("fault_meta_rebuilds"), 3u);
    EXPECT_EQ(mc.stats().get("fault_pages_inflated"), 1u);
    EXPECT_EQ(fi.report().meta_rebuilds, 3u);
    EXPECT_EQ(fi.report().pages_inflated_safety, 1u);
    EXPECT_EQ(fi.report().pages_poisoned, 0u);

    // Data survived the whole ladder; the page audits clean.
    mc.attachFaultInjector(nullptr);
    EXPECT_EQ(readLine(mc, addrOf(pn, 0)), in);
    AuditReport rep = mc.audit();
    EXPECT_TRUE(rep.clean()) << rep.summary();
}

TEST(CompressoFaults, MetadataDueWithoutRecoveryPoisonsPage)
{
    CompressoController mc(compressoConfig());
    FaultConfig fcfg = everyMetaFetchFaults();
    fcfg.recover = false;
    FaultInjector fi(fcfg);
    mc.attachFaultInjector(&fi);

    const PageNum pn = 2;
    Line in = classLine(DataClass::kText, 13);
    writeLine(mc, addrOf(pn, 0), in); // entry still invalid: no poison
    EXPECT_EQ(mc.stats().get("fault_pages_poisoned"), 0u);

    // Once the page holds data, an unrecoverable metadata DUE means
    // the whole OSPA->MPA mapping is gone: retire the page.
    mc.metadataCache()->invalidate(pn);
    EXPECT_TRUE(isZeroLine(readLine(mc, addrOf(pn, 0))));
    EXPECT_EQ(mc.stats().get("fault_pages_poisoned"), 1u);
    EXPECT_EQ(fi.report().pages_poisoned, 1u);
    EXPECT_EQ(fi.report().meta_rebuilds, 0u);

    // Fills serve poison; writebacks to the retired page are dropped.
    EXPECT_TRUE(isZeroLine(readLine(mc, addrOf(pn, 1))));
    EXPECT_GE(mc.stats().get("fault_poison_fills"), 1u);
    writeLine(mc, addrOf(pn, 0), in);
    EXPECT_EQ(mc.stats().get("fault_dropped_wbs"), 1u);

    // freePage is the OS remap: it clears the poison and the page is
    // usable again.
    mc.freePage(pn);
    mc.attachFaultInjector(nullptr);
    writeLine(mc, addrOf(pn, 0), in);
    EXPECT_EQ(readLine(mc, addrOf(pn, 0)), in);
}

TEST(LcpFaults, MetadataDueChargesOsPageFault)
{
    // OS-aware baseline: the rebuild is an OS service, so it stalls
    // for the page-fault cost (unlike Compresso's hardware re-walk).
    LcpConfig cfg;
    cfg.installed_bytes = uint64_t(32) << 20;
    LcpController mc(cfg);
    FaultInjector fi(everyMetaFetchFaults());
    mc.attachFaultInjector(&fi);

    const PageNum pn = 3;
    Line in = classLine(DataClass::kDeltaInt, 17);
    writeLine(mc, addrOf(pn, 4), in);
    uint64_t faults0 = mc.stats().get("page_faults");
    EXPECT_GE(mc.stats().get("fault_meta_rebuilds"), 1u);
    EXPECT_GE(faults0, 1u);

    mc.metadataCache()->invalidate(pn);
    McTrace tr;
    EXPECT_EQ(readLine(mc, addrOf(pn, 4), &tr), in);
    EXPECT_GT(mc.stats().get("page_faults"), faults0);
    EXPECT_GE(tr.stall_cycles, MetadataFrontEnd::kOsFaultCycles);

    // Escalation re-lays the page out with a 64 B target.
    mc.metadataCache()->invalidate(pn);
    EXPECT_EQ(readLine(mc, addrOf(pn, 4)), in);
    EXPECT_EQ(mc.stats().get("fault_pages_inflated"), 1u);
    EXPECT_EQ(fi.report().pages_inflated_safety, 1u);

    mc.attachFaultInjector(nullptr);
    EXPECT_EQ(readLine(mc, addrOf(pn, 4)), in);
    AuditReport rep = mc.audit();
    EXPECT_TRUE(rep.clean()) << rep.summary();
}

TEST(RmcFaults, MetadataDueRebuildsThenGoesRaw)
{
    // RMC has no test hook into its BST cache, so shrink it to a
    // single entry and alternate two pages to force misses.
    RmcConfig cfg;
    cfg.installed_bytes = uint64_t(32) << 20;
    cfg.bst = MetadataCacheConfig{kMetadataEntryBytes, 1, false};
    RmcController mc(cfg);
    FaultInjector fi(everyMetaFetchFaults());
    mc.attachFaultInjector(&fi);

    Line in_a = classLine(DataClass::kDeltaInt, 19);
    Line in_b = classLine(DataClass::kFloat, 23);
    writeLine(mc, addrOf(1, 0), in_a);
    writeLine(mc, addrOf(2, 0), in_b); // evicts page 1's BST entry

    // Each re-access of page 1 misses, takes a DUE, rebuilds; after
    // max_meta_rebuilds the page is re-laid out raw.
    for (unsigned round = 0; round < 4; ++round) {
        EXPECT_EQ(readLine(mc, addrOf(1, 0)), in_a) << round;
        EXPECT_EQ(readLine(mc, addrOf(2, 0)), in_b) << round;
    }
    EXPECT_GE(mc.stats().get("fault_meta_rebuilds"), 3u);
    EXPECT_GE(mc.stats().get("fault_pages_inflated"), 1u);
    EXPECT_GE(mc.stats().get("page_faults"), 3u); // OS-aware rebuilds

    mc.attachFaultInjector(nullptr);
    EXPECT_EQ(readLine(mc, addrOf(1, 0)), in_a);
    EXPECT_EQ(readLine(mc, addrOf(2, 0)), in_b);
    AuditReport rep = mc.audit();
    EXPECT_TRUE(rep.clean()) << rep.summary();
}

// ---------------------------------------------------------------------
// Audit-caught corruption degrades instead of aborting (checked builds
// with COMPRESSO_FAULT_RECOVERY and a recovering injector attached).
// ---------------------------------------------------------------------

TEST(CompressoFaults, AuditCaughtCorruptionDegradesInsteadOfAborting)
{
#if defined(COMPRESSO_CHECKED_BUILD) && defined(COMPRESSO_FAULT_RECOVERY)
    CompressoController mc(compressoConfig());
    FaultConfig fcfg; // no rates: only the planted corruption
    FaultInjector fi(fcfg);
    mc.attachFaultInjector(&fi);

    const PageNum pn = 0;
    for (unsigned l = 0; l < 8; ++l)
        writeLine(mc, addrOf(pn, l),
                  classLine(DataClass::kDeltaInt, 100 + l));
    ASSERT_TRUE(mc.audit().clean());

    // Plant an unrepairable-layout corruption (an invalid size-bin
    // code): the next checked audit catches it, and with a recovering
    // injector attached the page is retired instead of the process
    // aborting.
    mc.pageMetaForTest(pn).line_code[5] = 9;
    writeLine(mc, addrOf(pn, 0), classLine(DataClass::kDeltaInt, 100));
    EXPECT_EQ(mc.stats().get("fault_audit_recoveries"), 1u);
    EXPECT_EQ(fi.report().audit_recoveries, 1u);
    EXPECT_EQ(fi.report().pages_poisoned, 1u);
    EXPECT_TRUE(isZeroLine(readLine(mc, addrOf(pn, 3))));

    AuditReport rep = mc.audit();
    EXPECT_TRUE(rep.clean()) << rep.summary();
#else
    GTEST_SKIP() << "needs COMPRESSO_CHECKED_BUILD + "
                    "COMPRESSO_FAULT_RECOVERY";
#endif
}

// ---------------------------------------------------------------------
// System-level determinism: identical campaigns, identical reports.
// ---------------------------------------------------------------------

TEST(FaultCampaign, IdenticalSpecsProduceIdenticalReports)
{
    RunSpec spec;
    spec.kind = McKind::kCompresso;
    spec.workloads = {"gcc"};
    spec.refs_per_core = 20000;
    spec.warmup_refs = 2000;
    spec.fault.data_bit_rate = 1e-5;
    spec.fault.meta_bit_rate = 1e-6;
    spec.fault.double_bit_frac = 0.5;
    spec.fault.seed = 0xc0ffee;

    RunResult a = runSystem(spec);
    RunResult b = runSystem(spec);
    EXPECT_GT(a.reliability.injected(), 0u);
    EXPECT_TRUE(a.reliability == b.reliability);
    EXPECT_EQ(a.audit_violations, b.audit_violations);

    // A different seed perturbs the campaign (sanity check that the
    // comparison above is not vacuous).
    spec.fault.seed = 0xdecaf;
    RunResult c = runSystem(spec);
    EXPECT_FALSE(a.reliability == c.reliability);
}

TEST(FaultCampaign, RunnerExportsReliabilityAndEffectiveRatio)
{
    RunSpec spec;
    spec.kind = McKind::kCompresso;
    spec.workloads = {"gcc"};
    spec.refs_per_core = 10000;
    spec.warmup_refs = 1000;
    spec.fault.data_bit_rate = 1e-5;
    spec.fault.double_bit_frac = 0.5;

    RunResult r = runSystem(spec);
    EXPECT_GT(r.reliability.injected(), 0u);
    // Reliability counters are merged into the exported stat group.
    EXPECT_EQ(r.mc_stats.get("corrected"), r.reliability.corrected);
    // Metadata-inclusive ratio is strictly below the data-only ratio.
    EXPECT_GT(r.effective_ratio, 0.0);
    EXPECT_LT(r.effective_ratio, r.comp_ratio);
}
