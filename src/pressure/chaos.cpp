#include "pressure/chaos.h"

#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "compress/compressor.h"
#include "core/compresso_controller.h"
#include "core/lcp_controller.h"
#include "core/rmc_controller.h"
#include "exec/campaign.h"
#include "fault/fault_injector.h"
#include "workloads/datagen.h"

namespace compresso {

const char *
chaosScenarioName(ChaosScenario s)
{
    switch (s) {
    case ChaosScenario::kCalm: return "calm";
    case ChaosScenario::kCollapseStorm: return "collapse_storm";
    case ChaosScenario::kBalloonThrash: return "balloon_thrash";
    case ChaosScenario::kSwapStorm: return "swap_storm";
    case ChaosScenario::kMetadataPressure: return "metadata_pressure";
    case ChaosScenario::kFaultBurst: return "fault_burst";
    case ChaosScenario::kCount: break;
    }
    return "?";
}

ChaosScenario
chaosScenarioFromName(const std::string &name)
{
    for (size_t i = 0; i < size_t(ChaosScenario::kCount); ++i)
        if (name == chaosScenarioName(ChaosScenario(i)))
            return ChaosScenario(i);
    return ChaosScenario::kCount;
}

std::vector<ChaosScenario>
ChaosConfig::defaultPhases()
{
    return {ChaosScenario::kCalm,         ChaosScenario::kCollapseStorm,
            ChaosScenario::kBalloonThrash, ChaosScenario::kSwapStorm,
            ChaosScenario::kMetadataPressure, ChaosScenario::kFaultBurst,
            ChaosScenario::kCalm};
}

const std::vector<std::string> &
ChaosEngine::allKinds()
{
    static const std::vector<std::string> kinds{"compresso", "lcp", "rmc"};
    return kinds;
}

ChaosEngine::ChaosEngine(const ChaosConfig &cfg) : cfg_(cfg)
{
    if (cfg_.phases.empty())
        cfg_.phases = ChaosConfig::defaultPhases();
    uint64_t installed_pages = cfg_.installed_bytes / kPageBytes;
    if (cfg_.promised_pages == 0)
        cfg_.promised_pages = installed_pages * 2; // the ~2x promise
    if (cfg_.working_pages == 0)
        cfg_.working_pages = cfg_.promised_pages * 3 / 4;
    if (cfg_.swap_capacity_pages == 0)
        cfg_.swap_capacity_pages = cfg_.promised_pages / 8;
    cfg_.governor.total_chunks = cfg_.installed_bytes / kChunkBytes;
}

namespace {

/** Ambient bit-upset rate during fault_burst phases. */
constexpr double kFaultRatePerBit = 1e-6;

/** Per-line expected content: regenerated from (class, version), so
 *  the model costs 8 B/line instead of storing the data. ver == 0
 *  means never written (expected zero). */
struct LineState
{
    uint8_t cls = 0;
    uint32_t ver = 0;
};
using PageState = std::array<LineState, kLinesPerPage>;

void
expectedLine(PageNum page, unsigned line, const LineState &st, Line &out)
{
    if (st.ver == 0) {
        out.fill(0);
        return;
    }
    generateLine(DataClass(st.cls), Rng::mix(page, line, st.ver), out);
}

DataClass
pickCompressible(Rng &rng)
{
    static constexpr DataClass kPick[6] = {
        DataClass::kConstant, DataClass::kSmallInt, DataClass::kDeltaInt,
        DataClass::kFloat,    DataClass::kPointer,  DataClass::kText};
    return kPick[rng.below(6)];
}

std::unique_ptr<MemoryController>
makeController(const std::string &kind, const ChaosConfig &cfg)
{
    // Small metadata caches so the metadata_pressure phase actually
    // evicts (and, for Compresso, triggers repack-on-evict).
    MetadataCacheConfig md{8 * 1024, 8, /*half_entry_opt=*/false};
    if (kind == "compresso") {
        CompressoConfig c;
        c.installed_bytes = cfg.installed_bytes;
        c.mdcache = md;
        return std::make_unique<CompressoController>(c);
    }
    if (kind == "lcp") {
        LcpConfig c;
        c.installed_bytes = cfg.installed_bytes;
        c.mdcache = md;
        return std::make_unique<LcpController>(c);
    }
    if (kind != "rmc")
        throw std::invalid_argument("unknown controller kind '" + kind +
                                    "'");
    RmcConfig c;
    c.installed_bytes = cfg.installed_bytes;
    c.bst = md;
    return std::make_unique<RmcController>(c);
}

/** Counter snapshot for per-phase deltas. */
struct CounterSnap
{
    uint64_t machine_oom = 0;
    uint64_t oom_rescues = 0;
    uint64_t throttled = 0;
    uint64_t ladder = 0;
    uint64_t swap_full = 0;
    uint64_t overruns = 0;

    static CounterSnap
    take(const MemoryController &mc, SimOs &os)
    {
        const StatGroup &s = mc.stats();
        CounterSnap c;
        c.machine_oom = s.get("machine_oom");
        c.oom_rescues = s.get("oom_rescues");
        c.throttled = s.get("repacks_throttled") +
                      s.get("inflations_throttled") +
                      s.get("overflow_escalations") +
                      s.get("fault_rebuilds_throttled");
        c.ladder = s.get("fault_meta_rebuilds") +
                   s.get("fault_pages_inflated") +
                   s.get("fault_lines_poisoned") +
                   s.get("fault_pages_poisoned");
        c.swap_full = os.swap().swapFullRejections() +
                      os.stats().get("swap_full_discards");
        c.overruns = os.stats().get("budget_overruns");
        return c;
    }
};

} // namespace

ChaosReport
ChaosEngine::run(const std::string &kind) const
{
    size_t kind_idx = 0;
    for (; kind_idx < allKinds().size(); ++kind_idx)
        if (allKinds()[kind_idx] == kind)
            break;

    // The observer (when postmortems are on) outlives everything that
    // records into it: declared first, destroyed last.
    std::unique_ptr<Observer> obs;
    if (cfg_.postmortem) {
        ObsConfig oc;
        oc.enabled = true;
        // Attribution needs the per-ref begin/commit protocol the
        // runner drives; the chaos loop doesn't, so keep it off.
        oc.attribution = false;
        // One forced bundle per storm phase plus anomaly headroom; a
        // long re-arm keeps mid-phase snapshots to true anomalies.
        oc.postmortem_max_bundles = 2 * cfg_.phases.size() + 4;
        oc.postmortem_rearm = 4096;
        obs = std::make_unique<Observer>(oc);
    }

    std::unique_ptr<MemoryController> mc = makeController(kind, cfg_);
    SimOs os(cfg_.promised_pages);
    os.swap().setCapacity(cfg_.swap_capacity_pages);
    BalloonDriver balloon(os, *mc);
    PressureGovernor gov(cfg_.governor, *mc, os, balloon);
    if (obs != nullptr) {
        mc->attachObserver(obs.get());
        gov.attachObserver(obs.get());
        if (FlightRecorder *fr = obs->flightRecorder()) {
            fr->setNote("kind", kind);
            fr->setNote("seed", std::to_string(cfg_.seed));
        }
    }

    FaultConfig fc;
    fc.seed = Rng::mix(cfg_.seed, kind_idx, 0xFAu);
    FaultInjector fi(fc); // rates start at 0; bursts switch them on
    mc->attachFaultInjector(&fi);

    std::unordered_map<PageNum, PageState> model;
    ChaosReport rep;
    rep.controller = kind;
    rep.seed = cfg_.seed;

    Histogram stall;
    CounterSnap snap = CounterSnap::take(*mc, os);
    Line data, got, expect;
    uint64_t global_ref = 0; ///< recorder tick: references processed

    for (size_t pi = 0; pi < cfg_.phases.size(); ++pi) {
        ChaosScenario s = cfg_.phases[pi];
        ChaosPhaseReport ph;
        ph.scenario = chaosScenarioName(s);
        ph.refs = cfg_.refs_per_phase;

        Rng rng(Rng::mix(cfg_.seed, kind_idx * 131 + pi, uint64_t(s)));
        if (s == ChaosScenario::kFaultBurst)
            fi.setRates(kFaultRatePerBit, kFaultRatePerBit);

        const uint64_t n = cfg_.refs_per_phase;
        const uint64_t working = cfg_.working_pages;
        const uint64_t hot = std::max<uint64_t>(working / 4, 1);
        const uint64_t thrash_every = std::max<uint64_t>(n / 16, 1);
        const uint64_t thrash_pages =
            std::max<uint64_t>(working / 32, 4);
        bool thrash_inflated = false;

        for (uint64_t i = 0; i < n; ++i) {
            // Advance the simulated clock first so every event this
            // reference emits carries its tick (a pure function of the
            // schedule — byte-identical bundles at any worker count).
            if (obs != nullptr)
                obs->setNow(++global_ref);

            PageNum page = 0;
            bool is_write = false;
            DataClass cls = DataClass::kDeltaInt;

            switch (s) {
            case ChaosScenario::kCalm:
                page = rng.below(working);
                is_write = rng.chance(0.5);
                cls = pickCompressible(rng);
                break;
            case ChaosScenario::kCollapseStorm: {
                page = rng.chance(0.8) ? rng.below(hot)
                                       : rng.below(working);
                is_write = rng.chance(0.7);
                // Entropy ramp: the hot set turns incompressible over
                // the phase — the paper's OOM driver (Sec. V-B).
                double p_random =
                    0.1 + 0.9 * double(i) / double(n ? n : 1);
                cls = rng.chance(p_random) ? DataClass::kRandom
                                           : pickCompressible(rng);
                break;
            }
            case ChaosScenario::kBalloonThrash:
                if (i % thrash_every == 0) {
                    if (thrash_inflated)
                        balloon.deflate(thrash_pages);
                    else
                        balloon.inflate(thrash_pages);
                    thrash_inflated = !thrash_inflated;
                }
                page = rng.below(working);
                is_write = rng.chance(0.5);
                cls = pickCompressible(rng);
                break;
            case ChaosScenario::kSwapStorm:
                // Working set at 2x the OS budget on a bounded swap
                // device: constant faulting, swap_full rejections.
                page = rng.below(cfg_.promised_pages * 2);
                is_write = rng.chance(0.6);
                cls = rng.chance(0.3) ? DataClass::kRandom
                                      : pickCompressible(rng);
                break;
            case ChaosScenario::kMetadataPressure:
                page = rng.below(cfg_.promised_pages);
                is_write = rng.chance(0.5);
                cls = pickCompressible(rng);
                break;
            case ChaosScenario::kFaultBurst:
                page = rng.below(working);
                is_write = rng.chance(0.5);
                cls = rng.chance(0.2) ? DataClass::kRandom
                                      : pickCompressible(rng);
                break;
            case ChaosScenario::kCount:
                break;
            }

            unsigned line = unsigned(rng.below(kLinesPerPage));
            Addr addr =
                Addr(page) * kPageBytes + Addr(line) * kLineBytes;
            os.touch(page, is_write);

            McTrace tr;
            if (is_write) {
                LineState &st = model[page][line];
                LineState old = st;
                uint64_t oom0 = mc->stats().get("machine_oom");
                st.cls = uint8_t(cls);
                ++st.ver;
                generateLine(cls, Rng::mix(page, line, st.ver), data);
                mc->writebackLine(addr, data, tr);
                ++ph.writes;
                if (mc->stats().get("machine_oom") != oom0) {
                    // An unrescued machine OOM inside this write may
                    // have dropped it (the controller keeps the old
                    // bytes rather than corrupt the packed layout).
                    // Probe off-trace: the drop is loud — counted
                    // here — never a silent corruption.
                    McTrace probe;
                    mc->fillLine(addr, got, probe);
                    if (got != data) {
                        st = old;
                        ++ph.oom_dropped_writes;
                        expectedLine(page, line, st, expect);
                        if (got != expect && !isZeroLine(got))
                            ++ph.verify_failures;
                    }
                }
            } else {
                mc->fillLine(addr, got, tr);
                auto it = model.find(page);
                if (it == model.end()) {
                    expect.fill(0);
                } else {
                    expectedLine(page, line, it->second[line], expect);
                }
                if (got != expect) {
                    // Zero reads are what the degradation ladder and
                    // ballooning legitimately produce (poison
                    // pre-heal, reclaimed pages); anything else is a
                    // silent corruption.
                    if (isZeroLine(got))
                        ++ph.zero_tolerated;
                    else
                        ++ph.verify_failures;
                }
                ++ph.reads;
            }
            stall.add(tr.ops.size());

            // Pages the governor/balloon reclaimed read zero from now
            // on: reset their expectations.
            for (PageNum fp : balloon.drainFreed())
                model.erase(fp);

            if (uint32_t(gov.level()) > ph.max_level)
                ph.max_level = uint32_t(gov.level());
        }

        if (s == ChaosScenario::kFaultBurst)
            fi.setRates(0, 0);

        mc->flush();
        AuditReport audit = mc->audit();
        ph.audit_violations = audit.size();
        if (obs != nullptr) {
            if (FlightRecorder *fr = obs->flightRecorder()) {
                if (audit.size() > 0) {
                    fr->setNote("audit", audit.summary());
                    fr->trigger(PostmortemTrigger::kAuditViolation,
                                kNoPage, uint32_t(audit.size()),
                                /*force=*/true);
                }
                // Every injected storm forces a bundle at its phase
                // boundary: the acceptance-gate forensic record (page
                // carries the phase index, detail the scenario).
                if (s != ChaosScenario::kCalm) {
                    fr->setNote("storm", ph.scenario);
                    fr->trigger(PostmortemTrigger::kChaosStorm, pi,
                                uint32_t(s), /*force=*/true);
                }
            }
        }
        ph.level_end = pressureLevelName(gov.level());
        if (stall.count() > 0) {
            ph.stall_p50 = stall.percentile(0.50);
            ph.stall_p99 = stall.percentile(0.99);
            ph.stall_max = stall.max();
        }
        stall.reset();
        ph.ops = gov.watchdog().takePhase();

        CounterSnap now = CounterSnap::take(*mc, os);
        ph.machine_oom = now.machine_oom - snap.machine_oom;
        ph.oom_rescues = now.oom_rescues - snap.oom_rescues;
        ph.throttled = now.throttled - snap.throttled;
        ph.ladder_steps = now.ladder - snap.ladder;
        ph.swap_full = now.swap_full - snap.swap_full;
        ph.budget_overruns = now.overruns - snap.overruns;
        snap = now;

        rep.total_refs += ph.refs;
        rep.silent_corruptions += ph.verify_failures;
        rep.audit_violations += ph.audit_violations;
        rep.throttled_total += ph.throttled;
        rep.ladder_steps += ph.ladder_steps;
        if (ph.stall_p99 > rep.stall_p99_max)
            rep.stall_p99_max = ph.stall_p99;
        rep.phases.push_back(std::move(ph));
    }

    rep.watchdog_breaches = gov.watchdog().totalBreaches();
    rep.watchdog_denials = gov.stats().get("denied_watchdog");
    rep.oom_events = gov.stats().get("oom_events");
    rep.oom_rescued = gov.stats().get("oom_rescued");
    rep.oom_unrescued = gov.stats().get("oom_unrescued");

    if (rep.silent_corruptions != 0)
        rep.fail_reason = "silent corruption";
    else if (rep.audit_violations != 0)
        rep.fail_reason = "invariant violation";
    else if (rep.stall_p99_max > kChaosStallP99Bound)
        rep.fail_reason = "stall p99 over bound";
    rep.passed = rep.fail_reason.empty();

    if (obs != nullptr) {
        if (FlightRecorder *fr = obs->flightRecorder())
            rep.postmortems = fr->bundles();
        mc->attachObserver(nullptr);
        gov.attachObserver(nullptr);
    }
    // Keep the pressure stack detached from the dying controller.
    mc->attachFaultInjector(nullptr);
    mc->attachPressureListener(nullptr);
    return rep;
}

SoakResult
runSoak(const SoakConfig &cfg)
{
    const std::vector<std::string> kinds =
        cfg.kinds.empty() ? ChaosEngine::allKinds() : cfg.kinds;

    SoakResult out;
    out.seed = cfg.chaos.seed;
    out.reports.resize(kinds.size());

    Campaign camp("pressure-soak", cfg.chaos.seed);
    for (size_t k = 0; k < kinds.size(); ++k) {
        const std::string kind = kinds[k];
        // Each job writes its own pre-sized slot: no cross-job state,
        // so any worker count produces the identical SoakResult.
        camp.add("soak/" + kind,
                 [&out, &cfg, kind, k](uint64_t seed) {
                     ChaosConfig cc = cfg.chaos;
                     cc.seed = seed; // Rng::combine(seed, index)
                     ChaosEngine engine(cc);
                     out.reports[k] = engine.run(kind);
                     const ChaosReport &r = out.reports[k];
                     JobPayload pl;
                     pl.values["passed"] = r.passed ? 1.0 : 0.0;
                     pl.values["silent_corruptions"] =
                         double(r.silent_corruptions);
                     pl.values["audit_violations"] =
                         double(r.audit_violations);
                     pl.values["watchdog_breaches"] =
                         double(r.watchdog_breaches);
                     pl.values["stall_p99_max"] =
                         double(r.stall_p99_max);
                     return pl;
                 });
    }

    CampaignPolicy pol;
    pol.jobs = cfg.jobs;
    pol.progress = ProgressMode::kOff;
    // A job that threw left its slot default: name the kind and the
    // error so the soak fails with its reason.
    for (const JobRecord &rec : camp.run(pol).records) {
        if (rec.ok())
            continue;
        ChaosReport &r = out.reports[rec.index];
        r.controller = kinds[rec.index];
        r.fail_reason = rec.error;
    }
    return out;
}

} // namespace compresso
