/**
 * @file
 * Multi-tenant service tests (DESIGN.md §17): session generation
 * determinism and divergence tracking, the QoS shed ladder and
 * per-tenant inflation budgets, most-compressible-first tenant-scoped
 * reclaim, serial-vs-parallel bit-identity of the merged service
 * document, fairness under an adversarial tenant, adversary-rotation
 * soak, and tenant-tagged post-mortem bundles.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "os/balloon.h"
#include "service/service.h"
#include "service/service_export.h"
#include "sim/schema_versions.h"
#include "workloads/datagen.h"

using namespace compresso;

namespace {

std::vector<TenantSpec>
makeTenants(unsigned n, uint64_t pages = 64)
{
    const char *const profiles[] = {"gcc", "mcf", "bzip2", "gromacs"};
    std::vector<TenantSpec> specs;
    for (unsigned t = 0; t < n; ++t) {
        TenantSpec s;
        s.name = 't' + std::to_string(t);
        s.pages = pages;
        s.profile = profiles[t % 4];
        specs.push_back(s);
    }
    return specs;
}

ServiceConfig
smallService(unsigned tenants, uint64_t rounds = 6)
{
    ServiceConfig cfg;
    cfg.seed = 7;
    cfg.tenants = makeTenants(tenants);
    cfg.rounds = rounds;
    cfg.refs_per_round = 128;
    cfg.compresso.mdcache = MetadataCacheConfig{4 * 1024, 8, false};
    return cfg;
}

std::string
exportString(const ServiceResult &res)
{
    std::ostringstream os;
    writeServiceJson(os, "test", res);
    return os.str();
}

/** Write one page through the controller and make it OS-resident. */
void
writePage(MemoryController &mc, SimOs &os, PageNum p, DataClass cls,
          uint64_t seed)
{
    os.touch(p, true);
    Line data;
    for (unsigned l = 0; l < kLinesPerPage; ++l) {
        generateLine(cls, Rng::mix(p, l, seed), data);
        McTrace tr;
        mc.writebackLine(Addr(p) * kPageBytes + l * kLineBytes, data,
                         tr);
    }
}

} // namespace

// ---------------------------------------------------------------- session

TEST(TenantSession, GenerationIsAPureFunctionOfSessionState)
{
    TenantSpec spec = makeTenants(1)[0];
    TenantPartition part{0, 0, spec.pages};
    TenantSession a(spec, part, 99), b(spec, part, 99);

    std::vector<ServiceRef> ra, rb;
    for (int batch = 0; batch < 3; ++batch) {
        a.generate(64, ra);
        b.generate(64, rb);
        ASSERT_EQ(ra.size(), 64u);
        for (size_t i = 0; i < ra.size(); ++i) {
            EXPECT_EQ(ra[i].addr, rb[i].addr);
            EXPECT_EQ(ra[i].write, rb[i].write);
            EXPECT_EQ(ra[i].data, rb[i].data);
        }
    }
    EXPECT_EQ(a.refsGenerated(), 192u);
}

TEST(TenantSession, BatchesStayInsideThePartition)
{
    TenantSpec spec = makeTenants(1)[0];
    spec.pages = 32;
    TenantPartition part{1, 100, 32}; // base page 100
    TenantSession s(spec, part, 5);

    std::vector<ServiceRef> refs;
    s.generate(512, refs);
    for (const ServiceRef &r : refs) {
        PageNum p = r.addr / kPageBytes;
        EXPECT_TRUE(part.contains(p)) << "page " << p;
    }
}

TEST(TenantSession, DivergenceMarksHealAndPageFreesStick)
{
    TenantSpec spec = makeTenants(1)[0];
    TenantPartition part{0, 0, spec.pages};
    TenantSession s(spec, part, 3);

    Addr a = 5 * kPageBytes + 2 * kLineBytes;
    EXPECT_FALSE(s.divergent(a));
    s.markDivergent(a);
    EXPECT_TRUE(s.divergent(a));
    s.clearDivergent(a);
    EXPECT_FALSE(s.divergent(a));

    s.onPageFreed(5);
    EXPECT_TRUE(s.divergent(a)); // whole page diverged
    EXPECT_EQ(s.pagesLost(), 1u);
    s.clearDivergent(a); // a committed write heals the line
    EXPECT_FALSE(s.divergent(a));
}

TEST(TenantSession, AdversaryToggleRestoresThePristineProfile)
{
    TenantSpec spec = makeTenants(1)[0];
    TenantPartition part{0, 0, spec.pages};
    TenantSession s(spec, part, 3);

    EXPECT_FALSE(s.adversary());
    s.setAdversary(true);
    EXPECT_TRUE(s.adversary());
    std::vector<ServiceRef> refs;
    s.generate(256, refs); // hostile stream still partition-bounded
    for (const ServiceRef &r : refs)
        EXPECT_TRUE(part.contains(r.addr / kPageBytes));
    s.setAdversary(false);
    EXPECT_FALSE(s.adversary());
}

// ------------------------------------------------------------------- qos

namespace {

/** Controller + governor rig with the QoS interposer installed. */
struct QosRig
{
    TenantRegistry reg;
    CompressoController mc;
    SimOs os;
    BalloonDriver balloon;
    PressureGovernor gov;
    QosPolicy qos;

    explicit QosRig(std::vector<TenantSpec> specs,
                    uint64_t installed = 1 << 20)
        : reg(std::move(specs)), mc([installed] {
              CompressoConfig c;
              c.installed_bytes = installed;
              return c;
          }()),
          os(reg.totalPages()), balloon(os, mc),
          gov([installed] {
              GovernorConfig g;
              g.total_chunks = installed / kChunkBytes;
              return g;
          }(), mc, os, balloon),
          qos(reg, gov, mc)
    {
    }

    ~QosRig() { mc.attachPressureListener(nullptr); }

    /** Fill the machine until the governor reads @p frac free. */
    void
    fillTo(double frac)
    {
        PageNum next = 0;
        while (gov.freeFraction() >= frac && next < reg.totalPages())
            writePage(mc, os, next++, DataClass::kRandom, 13);
        gov.poll();
    }
};

} // namespace

TEST(QosPolicy, ShedLadderClipsOnlyOverBudgetTenants)
{
    QosRig rig(makeTenants(2, 256));

    // Tenant 0 owns 90% of the metadata-miss traffic (fair share 50%).
    rig.qos.noteMdOps(0, 900);
    rig.qos.noteMdOps(1, 100);
    EXPECT_EQ(rig.qos.mdOps(0), 900u);

    // No pressure: nobody is shed, however skewed.
    EXPECT_DOUBLE_EQ(rig.qos.shedFraction(0), 0.0);

    rig.fillTo(0.25); // elevated
    ASSERT_EQ(rig.gov.level(), PressureLevel::kElevated);
    EXPECT_DOUBLE_EQ(rig.qos.shedFraction(0), 0.5);
    EXPECT_DOUBLE_EQ(rig.qos.shedFraction(1), 0.0);

    rig.fillTo(0.10); // critical
    ASSERT_EQ(rig.gov.level(), PressureLevel::kCritical);
    EXPECT_DOUBLE_EQ(rig.qos.shedFraction(0), 0.75);

    rig.fillTo(0.03); // emergency
    ASSERT_EQ(rig.gov.level(), PressureLevel::kEmergency);
    EXPECT_DOUBLE_EQ(rig.qos.shedFraction(0), 0.875);
    EXPECT_DOUBLE_EQ(rig.qos.shedFraction(1), 0.0);
}

TEST(QosPolicy, ExplicitMdcacheShareTightensTheBudget)
{
    std::vector<TenantSpec> specs = makeTenants(2, 256);
    specs[0].mdcache_share = 0.05; // contract: 5% of miss traffic
    QosRig rig(std::move(specs));

    rig.qos.noteMdOps(0, 100); // 10% share — double its contract
    rig.qos.noteMdOps(1, 900);
    rig.fillTo(0.25);
    ASSERT_EQ(rig.gov.level(), PressureLevel::kElevated);
    EXPECT_DOUBLE_EQ(rig.qos.shedFraction(0), 0.5);
    // Tenant 1 is over fair share (90% > 50% x 1.25) — shed too.
    EXPECT_DOUBLE_EQ(rig.qos.shedFraction(1), 0.5);
}

TEST(QosPolicy, InflationBudgetIsPerTenantPerRound)
{
    std::vector<TenantSpec> specs = makeTenants(2);
    specs[0].inflation_budget = 2;
    QosRig rig(std::move(specs));

    // Tenant 0: two admissions, then the budget denies ahead of the
    // governor (which would admit at normal pressure).
    rig.qos.setCurrentTenant(0);
    EXPECT_TRUE(rig.qos.admitOp(PressureOp::kInflation, 8));
    EXPECT_TRUE(rig.qos.admitOp(PressureOp::kInflation, 8));
    EXPECT_FALSE(rig.qos.admitOp(PressureOp::kInflation, 8));
    EXPECT_EQ(rig.qos.inflationDenied(0), 1u);

    // Tenant 1 has its own budget.
    rig.qos.setCurrentTenant(1);
    EXPECT_TRUE(rig.qos.admitOp(PressureOp::kInflation, 8));
    EXPECT_EQ(rig.qos.inflationDenied(1), 0u);

    // New round: the window resets, the lifetime denial count sticks.
    rig.qos.newRound();
    rig.qos.setCurrentTenant(0);
    EXPECT_TRUE(rig.qos.admitOp(PressureOp::kInflation, 8));
    EXPECT_EQ(rig.qos.inflationDenied(0), 1u);

    // Non-inflation ops bypass the tenant budget entirely.
    EXPECT_TRUE(rig.qos.admitOp(PressureOp::kRepack, 8));
    rig.qos.setCurrentTenant(kNoTenant);
}

// --------------------------------------------------- tenant-scoped reclaim

TEST(TenantReclaim, TargetedBallooningFreesMostCompressibleFirst)
{
    TenantRegistry reg(makeTenants(2, 32));
    CompressoConfig cc;
    cc.installed_bytes = 2 * 1024 * 1024;
    CompressoController mc(cc);
    SimOs os(reg.totalPages());
    BalloonDriver balloon(os, mc);
    balloon.setPartitionPolicy(&reg);

    // Victim partition: half cheap (zero) pages, half expensive
    // (random) ones; the neighbour partition all expensive.
    for (PageNum p = 0; p < 32; ++p)
        writePage(mc, os, p,
                  p % 2 == 0 ? DataClass::kZero : DataClass::kRandom,
                  21);
    for (PageNum p = 32; p < 64; ++p)
        writePage(mc, os, p, DataClass::kRandom, 21);

    // The service's rebalance step: candidates from the scoped window,
    // most-compressible first, ties on page number.
    std::vector<PageNum> freed;
    {
        PartitionScope scope(reg, os, 0);
        std::vector<PageNum> cand = os.coldPages(64);
        for (PageNum p : cand)
            ASSERT_LT(p, 32u) << "candidate outside the window";
        std::sort(cand.begin(), cand.end(),
                  [&mc](PageNum a, PageNum b) {
                      uint64_t ba = mc.pageCompressedBytes(a);
                      uint64_t bb = mc.pageCompressedBytes(b);
                      return ba != bb ? ba < bb : a < b;
                  });
        cand.resize(8);
        EXPECT_EQ(balloon.inflateTargeted(cand), 8u);
        freed = balloon.drainFreed();
    }

    // Exactly the 8 cheapest pages: the zero-class even pages.
    ASSERT_EQ(freed.size(), 8u);
    for (PageNum p : freed) {
        EXPECT_LT(p, 32u);
        EXPECT_EQ(p % 2, 0u) << "freed an expensive page " << p;
    }
    EXPECT_EQ(balloon.partitionRejects(), 0u);
    EXPECT_EQ(reg.crossPartitionAttempts(), 0u);
    balloon.setPartitionPolicy(nullptr);
}

// --------------------------------------------------------------- service

TEST(Service, MergedDocumentIsBitIdenticalAcrossJobs)
{
    ServiceConfig cfg = smallService(4);
    cfg.tenants[1].adversary = true; // pressure makes the test honest

    ServiceConfig serial = cfg, parallel = cfg;
    serial.jobs = 1;
    parallel.jobs = 4;
    ServiceResult a = runService(serial);
    ServiceResult b = runService(parallel);

    EXPECT_EQ(a.total_refs, b.total_refs);
    EXPECT_EQ(exportString(a), exportString(b));
}

TEST(Service, ExportLeadsWithTheRegisteredSchema)
{
    ServiceConfig cfg = smallService(2, 2);
    std::string doc = exportString(runService(cfg));
    std::string expect =
        std::string("{\"schema\":\"") + kServiceJsonSchema + "\"";
    EXPECT_EQ(doc.compare(0, expect.size(), expect), 0) << doc;
    EXPECT_NE(doc.find("\"isolation\""), std::string::npos);
    EXPECT_NE(doc.find("\"latency_breakdown\""), std::string::npos);
}

TEST(Service, AdversaryAmongTenantsCannotCorruptNeighbours)
{
    ServiceConfig cfg = smallService(4, 8);
    cfg.tenants[0].adversary = true;
    ServiceResult res = runService(cfg);

    EXPECT_EQ(res.silent_corruptions, 0u);
    EXPECT_EQ(res.audit_violations, 0u);
    EXPECT_EQ(res.partition_audit_violations, 0u);
    // Scoped reclaim never leaked across a partition boundary.
    EXPECT_EQ(res.balloon_partition_rejects, 0u);
    EXPECT_EQ(res.os_window_rejects, 0u);
    EXPECT_TRUE(res.tenants[0].adversary);
    for (const TenantReport &t : res.tenants)
        EXPECT_EQ(t.verify_failures, 0u) << t.name;
}

TEST(Service, RebalanceReclaimsUnderPressure)
{
    ServiceConfig cfg = smallService(4, 10);
    cfg.tenants[3].adversary = true;
    // Tight machine: 55% of promised bytes forces critical+ rounds.
    cfg.installed_bytes =
        4 * 64 * kPageBytes * 55 / 100;
    ServiceResult res = runService(cfg);

    EXPECT_GE(res.max_level, uint32_t(PressureLevel::kCritical));
    EXPECT_GT(res.rebalances, 0u);
    EXPECT_GT(res.rebalance_pages, 0u);
    uint64_t lost = 0;
    for (const TenantReport &t : res.tenants)
        lost += t.pages_lost;
    EXPECT_GE(lost, res.rebalance_pages);
    EXPECT_EQ(res.silent_corruptions, 0u);
    EXPECT_EQ(res.partition_audit_violations, 0u);
}

TEST(Service, AdversaryRotationSoaksCleanly)
{
    ServiceConfig cfg = smallService(3, 9);
    cfg.adversary_rotate_every = 3; // rounds 0-2: t0, 3-5: t1, 6-8: t2
    ServiceResult res = runService(cfg);

    for (const TenantReport &t : res.tenants)
        EXPECT_TRUE(t.adversary) << t.name << " never took the role";
    EXPECT_EQ(res.silent_corruptions, 0u);
    EXPECT_EQ(res.audit_violations, 0u);
    EXPECT_EQ(res.partition_audit_violations, 0u);
}

TEST(Service, WeightsScaleReferenceCounts)
{
    ServiceConfig cfg = smallService(2, 4);
    cfg.tenants[0].weight = 3;
    ServiceResult res = runService(cfg);
    // No shedding expected at these sizes; weight 3 serves 3x refs.
    EXPECT_EQ(res.tenants[0].refs + res.tenants[0].shed,
              3 * (res.tenants[1].refs + res.tenants[1].shed));
}

TEST(Service, PostmortemBundlesCarryTheTenantTag)
{
    ServiceConfig cfg = smallService(4, 10);
    cfg.tenants[0].adversary = true;
    cfg.installed_bytes = 4 * 64 * kPageBytes * 55 / 100;
    cfg.postmortem = true;
    ServiceResult res = runService(cfg);

    ASSERT_GT(res.postmortems.size(), 0u)
        << "pressure run took no post-mortems";
    for (const PostmortemBundle &b : res.postmortems) {
        ASSERT_EQ(b.notes.count("tenant"), 1u);
        ASSERT_EQ(b.notes.count("tenants"), 1u);
        EXPECT_EQ(b.notes.at("tenants"), "4");
        auto svc = b.sections.find("service");
        ASSERT_NE(svc, b.sections.end());
        EXPECT_EQ(svc->second.count("round"), 1u);
        EXPECT_EQ(svc->second.count("current_tenant"), 1u);
    }
}
