#include "service/service.h"

#include <algorithm>
#include <memory>

#include "compress/compressor.h"
#include "exec/thread_pool.h"
#include "obs/observer.h"

namespace compresso {

namespace {

/** Governor denial total (level + watchdog + window shed). */
uint64_t
governorDenials(const PressureGovernor &gov)
{
    const StatGroup &s = gov.stats();
    return s.get("denied_level") + s.get("denied_watchdog") +
           s.get("denied_window");
}

/** Machine bytes and backed-page count of one partition. */
void
partitionFootprint(const MemoryController &mc, const TenantPartition &p,
                   uint64_t &bytes, uint64_t &pages)
{
    bytes = 0;
    pages = 0;
    for (PageNum pg = p.base_page; pg < p.base_page + p.pages; ++pg) {
        uint64_t b = mc.pageCompressedBytes(pg);
        if (b > 0) {
            bytes += b;
            ++pages;
        }
    }
}

} // namespace

ServiceResult
runService(const ServiceConfig &cfg)
{
    TenantRegistry reg(cfg.tenants);
    const size_t n_tenants = reg.count();

    const uint64_t promised_bytes = reg.totalPages() * kPageBytes;
    const uint64_t installed = cfg.installed_bytes != 0
                                   ? cfg.installed_bytes
                                   : promised_bytes * 2 / 3;
    const uint64_t swap_pages = cfg.swap_capacity_pages != 0
                                    ? cfg.swap_capacity_pages
                                    : reg.totalPages() / 8;

    // Post-mortem context the provider reads at snapshot time; declared
    // before the observer so it outlives every possible trigger.
    struct SvcCtx
    {
        uint64_t round = 0;
        TenantId tenant = kNoTenant;
    } ctx;

    // Observer first: it outlives everything that records into it.
    std::unique_ptr<Observer> obs;
    if (cfg.postmortem) {
        ObsConfig oc;
        oc.enabled = true;
        oc.attribution = false; // the service owns per-tenant attributors
        oc.postmortem_max_bundles = 16;
        oc.postmortem_rearm = 4096;
        obs = std::make_unique<Observer>(oc);
    }

    CompressoConfig cc = cfg.compresso;
    cc.installed_bytes = installed;
    CompressoController mc(cc);
    SimOs os(reg.totalPages());
    os.swap().setCapacity(swap_pages);
    BalloonDriver balloon(os, mc);
    balloon.setPartitionPolicy(&reg);

    GovernorConfig gc = cfg.governor;
    gc.total_chunks = installed / kChunkBytes;
    PressureGovernor gov(gc, mc, os, balloon);
    // The QoS layer interposes: constructed after the governor, it
    // takes the controller's listener slot and delegates inward.
    QosPolicy qos(reg, gov, mc);

    std::vector<std::unique_ptr<TenantSession>> sessions;
    sessions.reserve(n_tenants);
    for (TenantId t = 0; t < n_tenants; ++t)
        sessions.push_back(std::make_unique<TenantSession>(
            reg.spec(t), reg.partition(t), cfg.seed));

    ServiceResult res;
    res.seed = cfg.seed;
    res.rounds = cfg.rounds;
    res.refs_per_round = cfg.refs_per_round;
    res.tenants.resize(n_tenants);
    for (TenantId t = 0; t < n_tenants; ++t) {
        TenantReport &r = res.tenants[t];
        r.name = reg.spec(t).name;
        r.profile = reg.spec(t).profile;
        r.adversary = reg.spec(t).adversary;
        r.partition_base = reg.partition(t).base_page;
        r.partition_pages = reg.partition(t).pages;
    }

    // Write every partition's initial image before serving.
    Line init;
    for (TenantId t = 0; t < n_tenants; ++t) {
        const TenantPartition &p = reg.partition(t);
        for (PageNum pg = p.base_page; pg < p.base_page + p.pages; ++pg) {
            os.touch(pg, true);
            for (unsigned l = 0; l < kLinesPerPage; ++l) {
                Addr addr = Addr(pg) * kPageBytes + Addr(l) * kLineBytes;
                McTrace tr;
                sessions[t]->initialLineData(addr, init);
                mc.writebackLine(addr, init, tr);
            }
        }
    }
    mc.flush();
    mc.stats().reset();
    os.stats().reset();

    // Attach observability only now: populate-time rescues must not
    // burn the bundle budget before any batch (and its tenant tag)
    // exists.
    FlightRecorder *fr = nullptr;
    if (obs != nullptr) {
        mc.attachObserver(obs.get());
        gov.attachObserver(obs.get());
        fr = obs->flightRecorder();
        if (fr != nullptr) {
            fr->setNote("seed", std::to_string(cfg.seed));
            fr->setNote("tenants", std::to_string(n_tenants));
            fr->addProvider([&ctx](PostmortemBundle &b) {
                b.sections["service"]["round"] = ctx.round;
                b.sections["service"]["current_tenant"] =
                    ctx.tenant == kNoTenant ? ~uint64_t(0)
                                            : uint64_t(ctx.tenant);
            });
        }
    }

    const unsigned jobs =
        cfg.jobs == 0 ? ThreadPool::hardwareJobs() : cfg.jobs;
    std::unique_ptr<ThreadPool> pool;
    if (jobs > 1)
        pool = std::make_unique<ThreadPool>(jobs);

    std::vector<std::vector<ServiceRef>> batches(n_tenants);
    std::vector<Histogram> lat(n_tenants);
    std::vector<CycleAttributor> attr(n_tenants);

    Line got;
    uint64_t tick = 0;

    auto routeFreed = [&]() {
        for (PageNum fp : balloon.drainFreed()) {
            TenantId owner = reg.ownerOf(fp);
            if (owner != kNoTenant) {
                sessions[owner]->onPageFreed(fp);
                ++res.tenants[owner].pages_lost;
            }
        }
    };

    for (uint64_t round = 0; round < cfg.rounds; ++round) {
        ctx.round = round;
        qos.newRound();

        if (cfg.adversary_rotate_every != 0 &&
            round % cfg.adversary_rotate_every == 0) {
            TenantId target = TenantId(
                (round / cfg.adversary_rotate_every) % n_tenants);
            for (TenantId t = 0; t < n_tenants; ++t)
                sessions[t]->setAdversary(t == target);
            res.tenants[target].adversary = true;
        }

        // Shed before generation: a clipped batch keeps the session's
        // content model and the controller in lockstep.
        std::vector<uint64_t> batch_refs(n_tenants);
        for (TenantId t = 0; t < n_tenants; ++t) {
            uint64_t want =
                cfg.refs_per_round *
                std::max<uint32_t>(reg.spec(t).weight, 1);
            uint64_t shed =
                uint64_t(double(want) * qos.shedFraction(t));
            batch_refs[t] = want - shed;
            if (shed > 0) {
                qos.noteShed(t, shed);
                res.tenants[t].shed += shed;
            }
        }

        // Generate: parallel, one pre-sized slot per tenant.
        if (pool != nullptr) {
            for (TenantId t = 0; t < n_tenants; ++t) {
                TenantSession *s = sessions[t].get();
                std::vector<ServiceRef> *slot = &batches[t];
                uint64_t n = batch_refs[t];
                pool->submit([s, slot, n] { s->generate(n, *slot); });
            }
            pool->wait();
        } else {
            for (TenantId t = 0; t < n_tenants; ++t)
                sessions[t]->generate(batch_refs[t], batches[t]);
        }

        // Apply: serial, fixed tenant order.
        for (TenantId t = 0; t < n_tenants; ++t) {
            TenantReport &rep = res.tenants[t];
            qos.setCurrentTenant(t);
            ctx.tenant = t;
            if (fr != nullptr)
                fr->setNote("tenant", rep.name);

            uint64_t md0 = mc.stats().get("md_read_ops");
            uint64_t den0 = governorDenials(gov);
            uint64_t faults0 = os.stats().get("faults");

            for (const ServiceRef &ref : batches[t]) {
                if (obs != nullptr)
                    obs->setNow(++tick);
                PageNum page = ref.addr / kPageBytes;
                os.touch(page, ref.write);

                McTrace tr;
                if (ref.write) {
                    uint64_t oom0 = mc.stats().get("machine_oom");
                    mc.writebackLine(ref.addr, ref.data, tr);
                    ++rep.writes;
                    bool committed = true;
                    if (mc.stats().get("machine_oom") != oom0) {
                        // An unrescued OOM inside the write may have
                        // dropped it; probe off-trace so the drop is
                        // loud, never a silent corruption.
                        McTrace probe;
                        mc.fillLine(ref.addr, got, probe);
                        committed = got == ref.data;
                    }
                    if (committed) {
                        sessions[t]->clearDivergent(ref.addr);
                    } else {
                        sessions[t]->markDivergent(ref.addr);
                        ++rep.oom_dropped_writes;
                    }
                } else {
                    mc.fillLine(ref.addr, got, tr);
                    ++rep.reads;
                    if (got != ref.data) {
                        if (isZeroLine(got))
                            ++rep.zero_tolerated;
                        else if (sessions[t]->divergent(ref.addr))
                            ++rep.unverified;
                        else
                            ++rep.verify_failures;
                    }
                }
                ++rep.refs;

                // Per-reference latency model: fixed controller
                // latency + critical device ops + synchronous stalls;
                // conservation holds by construction.
                Cycle total = tr.fixed_latency + tr.stall_cycles;
                AttribVec comp = tr.fixed_by_comp;
                for (const DramOp &op : tr.ops) {
                    if (op.critical) {
                        total += kServiceDeviceOpCycles;
                        comp[size_t(op.comp)] += kServiceDeviceOpCycles;
                    } else {
                        attr[t].background(op.comp,
                                           kServiceDeviceOpCycles);
                    }
                }
                if (tr.stall_cycles > 0)
                    comp[size_t(tr.stall_comp)] += tr.stall_cycles;
                attr[t].record(ref.addr, total, comp);
                lat[t].add(total);

                routeFreed();
                if (uint32_t(gov.level()) > res.max_level)
                    res.max_level = uint32_t(gov.level());
            }

            rep.md_ops += mc.stats().get("md_read_ops") - md0;
            rep.gov_denied += governorDenials(gov) - den0;
            rep.faults += os.stats().get("faults") - faults0;
            qos.setCurrentTenant(kNoTenant);
            ctx.tenant = kNoTenant;
        }
        if (fr != nullptr)
            fr->setNote("tenant", "");

        // End of round: rebalance from the most-compressible tenant
        // under critical+ pressure (Sec. V-B across tenants).
        gov.poll();
        if (uint32_t(gov.level()) >= uint32_t(PressureLevel::kCritical)) {
            TenantId victim = kNoTenant;
            double best = 0.0;
            for (TenantId t = 0; t < n_tenants; ++t) {
                uint64_t bytes = 0, pages = 0;
                partitionFootprint(mc, reg.partition(t), bytes, pages);
                if (pages == 0)
                    continue;
                double mean = double(bytes) / double(pages);
                if (victim == kNoTenant || mean < best) {
                    best = mean;
                    victim = t;
                }
            }
            if (victim != kNoTenant) {
                uint64_t cross0 = reg.crossPartitionAttempts() +
                                  balloon.partitionRejects() +
                                  os.windowRejects();
                {
                    PartitionScope scope(reg, os, victim);
                    std::vector<PageNum> cand =
                        os.coldPages(gc.candidate_scan);
                    std::sort(cand.begin(), cand.end(),
                              [&mc](PageNum a, PageNum b) {
                                  uint64_t ba =
                                      mc.pageCompressedBytes(a);
                                  uint64_t bb =
                                      mc.pageCompressedBytes(b);
                                  return ba != bb ? ba < bb : a < b;
                              });
                    if (cand.size() > gc.emergency_reclaim_pages)
                        cand.resize(gc.emergency_reclaim_pages);
                    res.rebalance_pages += balloon.inflateTargeted(cand);
                }
                ++res.rebalances;
                routeFreed();
                uint64_t cross = reg.crossPartitionAttempts() +
                                 balloon.partitionRejects() +
                                 os.windowRejects() - cross0;
                if (cross > 0 && fr != nullptr)
                    fr->trigger(PostmortemTrigger::kCrossPartition,
                                reg.partition(victim).base_page,
                                victim, /*force=*/true);
            }
        }
    }

    mc.flush();
    routeFreed();

    AuditReport audit = mc.audit();
    res.audit_violations = audit.size();
    if (audit.size() > 0 && fr != nullptr) {
        fr->setNote("audit", audit.summary());
        fr->trigger(PostmortemTrigger::kAuditViolation, kNoPage,
                    uint32_t(audit.size()), /*force=*/true);
    }

    // Partition audit: every backed page must belong to exactly one
    // tenant partition.
    std::vector<PageNum> backed;
    for (PageNum pg = 0; pg < reg.totalPages(); ++pg)
        if (mc.pageCompressedBytes(pg) > 0)
            backed.push_back(pg);
    AuditReport part_audit =
        InvariantAuditor::auditPartitions(reg.ranges(), backed);
    res.partition_audit_violations = part_audit.size();

    uint64_t touched_all = 0;
    std::vector<uint64_t> t_bytes(n_tenants), t_pages(n_tenants);
    for (TenantId t = 0; t < n_tenants; ++t) {
        partitionFootprint(mc, reg.partition(t), t_bytes[t],
                           t_pages[t]);
        touched_all += t_pages[t];
    }
    uint64_t md_total = mc.mpaMetadataBytes();
    for (TenantId t = 0; t < n_tenants; ++t) {
        TenantReport &rep = res.tenants[t];
        rep.touched_pages = t_pages[t];
        rep.inflation_denied = qos.inflationDenied(t);
        if (t_bytes[t] > 0) {
            double ospa = double(t_pages[t]) * double(kPageBytes);
            rep.comp_ratio = ospa / double(t_bytes[t]);
            double md_share =
                touched_all == 0
                    ? 0.0
                    : double(md_total) * double(t_pages[t]) /
                          double(touched_all);
            rep.effective_ratio =
                ospa / (double(t_bytes[t]) + md_share);
        }
        if (lat[t].count() > 0) {
            rep.lat_p50 = lat[t].percentile(0.50);
            rep.lat_p99 = lat[t].percentile(0.99);
            rep.lat_max = lat[t].max();
            rep.lat_mean = lat[t].mean();
        }
        rep.attrib = attr[t].snapshot();
        res.total_refs += rep.refs;
        res.silent_corruptions += rep.verify_failures;
    }

    res.level_end = pressureLevelName(gov.level());
    res.oom_events = gov.stats().get("oom_events");
    res.oom_rescued = gov.stats().get("oom_rescued");
    res.oom_unrescued = gov.stats().get("oom_unrescued");
    res.cross_partition_attempts = reg.crossPartitionAttempts();
    res.balloon_partition_rejects = balloon.partitionRejects();
    res.os_window_rejects = os.windowRejects();
    res.comp_ratio = mc.compressionRatio();
    res.effective_ratio = mc.effectiveRatio();

    if (obs != nullptr) {
        if (fr != nullptr)
            res.postmortems = fr->bundles();
        mc.attachObserver(nullptr);
        gov.attachObserver(nullptr);
    }
    // Detach the interposer chain before the stack unwinds.
    mc.attachPressureListener(nullptr);
    balloon.setPartitionPolicy(nullptr);
    return res;
}

} // namespace compresso
