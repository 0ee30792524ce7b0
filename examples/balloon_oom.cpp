/**
 * @file
 * The OS-transparent out-of-memory flow (Sec. V-B, Fig. 8) — now
 * self-checking, and the front door to the chaos/soak harness
 * (DESIGN.md §14).
 *
 * Compresso promises the OS more memory than is installed. If the
 * data turns out less compressible than promised, machine memory runs
 * out while the OS still believes it has free pages. The paper's
 * answer: reuse the guest-ballooning facility — a driver demands
 * pages through the regular allocation path, the OS reclaims cold
 * pages via its normal LRU, and the freed OSPA pages are invalidated
 * in the controller, releasing their machine chunks.
 *
 * Default mode walks the classic four-phase balloon story, then runs
 * a short ChaosEngine rotation (collapse storm, balloon thrash, swap
 * storm, fault burst...) against the Compresso controller with the
 * full pressure stack live, and *asserts* the soak gates: zero silent
 * corruptions, zero invariant-audit violations, bounded p99 stall.
 * A non-zero exit means a gate failed.
 *
 * Build & run:  ./build/examples/balloon_oom
 *               ./build/examples/balloon_oom --soak [--refs N]
 *                   [--seed N] [--jobs N] [--out soak.json]
 *                   [--postmortem <dir>]
 *
 * --soak runs the full rotation on all three compressed controllers
 * (sharded over the campaign engine) and writes the versioned
 * compresso-soak-v1 document for tools/obs_report.py.
 *
 * --postmortem <dir> attaches the anomaly flight recorder (DESIGN.md
 * §16) to every chaos run and writes one compresso-postmortem-v1
 * document per captured bundle — at least one forced bundle per
 * injected storm — for `tools/obs_report.py check|summary|triage`.
 * Works in both modes; bundles are byte-identical at any --jobs count.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/compresso_controller.h"
#include "os/balloon.h"
#include "pressure/chaos.h"
#include "pressure/soak_export.h"
#include "sim/postmortem_export.h"
#include "workloads/datagen.h"

using namespace compresso;

namespace {

void
writePage(CompressoController &mc, PageNum page, DataClass cls)
{
    Line data;
    for (unsigned l = 0; l < kLinesPerPage; ++l) {
        generateLine(cls, Rng::mix(page, l, unsigned(cls)), data);
        McTrace tr;
        mc.writebackLine(Addr(page) * kPageBytes + l * kLineBytes, data,
                         tr);
    }
}

void
report(const char *stage, CompressoController &mc, SimOs &os,
       BalloonDriver &balloon)
{
    std::printf("%-34s | machine used %4llu KB free %4llu KB | "
                "OS resident %4llu pages | balloon %llu\n",
                stage,
                (unsigned long long)mc.mpaDataBytes() / 1024,
                (unsigned long long)(uint64_t(4096) * 1024 -
                                     mc.mpaDataBytes()) /
                    1024,
                (unsigned long long)os.residentPages(),
                (unsigned long long)balloon.heldPages());
}

/** The original demo: fill, degrade, balloon, deflate. */
void
classicDemo()
{
    // 4 MB installed; the OS is promised 8 MB (2048 OSPA pages).
    constexpr uint64_t kInstalled = uint64_t(4) << 20;
    constexpr uint64_t kPromisedPages = 2048;

    CompressoConfig cfg;
    cfg.installed_bytes = kInstalled;
    CompressoController mc(cfg);
    SimOs os(kPromisedPages);
    BalloonDriver balloon(os, mc);

    std::printf("Installed machine memory: 4 MB; promised to the OS: "
                "8 MB (relying on ~2x compression)\n\n");

    // Phase 1: the OS uses 1500 pages of nicely-compressing data
    // (6 MB of OSPA in ~1.5 MB of machine memory).
    for (PageNum p = 0; p < 1500; ++p) {
        os.touch(p, true);
        writePage(mc, p, DataClass::kDeltaInt);
    }
    report("phase 1: 1500 compressible pages", mc, os, balloon);

    // Phase 2: a third of the data is overwritten with incompressible
    // values; machine usage balloons.
    for (PageNum p = 0; p < 500; ++p) {
        os.touch(p, true);
        writePage(mc, p, DataClass::kRandom);
    }
    report("phase 2: 500 pages turn random", mc, os, balloon);

    // Phase 3: the watermark check sees free machine memory below the
    // reserve and asks the balloon driver to make room. The driver
    // inflates; the OS reclaims cold pages; the controller invalidates
    // them and their chunks return to the free list.
    uint64_t free_chunks =
        (kInstalled - mc.mpaDataBytes()) / kChunkBytes;
    uint64_t reclaimed = balloon.balance(free_chunks,
                                         /*reserve_chunks=*/4096);
    std::printf("\nballoon.balance(): reclaimed %llu cold OSPA pages "
                "from the OS\n\n",
                (unsigned long long)reclaimed);
    report("phase 3: after ballooning", mc, os, balloon);

    // Phase 4: pressure relieved (data freed / recompressed), the
    // balloon deflates and the OS gets its pages back.
    balloon.deflate(reclaimed);
    report("phase 4: balloon deflated", mc, os, balloon);

    std::printf("\nThroughout, the OS ran its stock reclaim path — no "
                "compression awareness needed\n(the paper's Tab. I "
                "'OS-transparent' column).\n");
}

void
printReport(const ChaosReport &r)
{
    std::printf("\n%s: %s%s%s — %llu refs, oom %llu (rescued %llu), "
                "throttled %llu, ladder %llu, breaches %llu, "
                "stall p99 max %llu\n",
                r.controller.c_str(), r.passed ? "PASS" : "FAIL",
                r.fail_reason.empty() ? "" : ": ",
                r.fail_reason.c_str(),
                (unsigned long long)r.total_refs,
                (unsigned long long)r.oom_events,
                (unsigned long long)r.oom_rescued,
                (unsigned long long)r.throttled_total,
                (unsigned long long)r.ladder_steps,
                (unsigned long long)r.watchdog_breaches,
                (unsigned long long)r.stall_p99_max);
    for (const ChaosPhaseReport &ph : r.phases)
        std::printf("  %-18s level %-9s stall p99 %5llu | oom %llu "
                    "throttle %llu ladder %llu swap_full %llu "
                    "zero_tol %llu\n",
                    ph.scenario.c_str(), ph.level_end.c_str(),
                    (unsigned long long)ph.stall_p99,
                    (unsigned long long)ph.machine_oom,
                    (unsigned long long)ph.throttled,
                    (unsigned long long)ph.ladder_steps,
                    (unsigned long long)ph.swap_full,
                    (unsigned long long)ph.zero_tolerated);
}

/** Write @p r's bundles as postmortem-<controller>-NNN.json under
 *  @p dir; returns false (after complaining) on I/O failure. */
bool
dumpPostmortems(const std::string &dir, const ChaosReport &r)
{
    int n = writePostmortemBundles(dir, "balloon_oom",
                                   "postmortem-" + r.controller + "-",
                                   r.postmortems);
    if (n < 0) {
        std::fprintf(stderr, "cannot write post-mortem bundles under %s\n",
                     dir.c_str());
        return false;
    }
    if (n > 0)
        std::printf("wrote %d post-mortem bundle%s under %s (%s)\n", n,
                    n == 1 ? "" : "s", dir.c_str(),
                    kPostmortemJsonSchema);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    bool soak = false;
    uint64_t refs = 0, seed = 1;
    unsigned jobs = 2;
    std::string out, pm_dir;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--soak") == 0)
            soak = true;
        else if (std::strcmp(argv[i], "--refs") == 0 && i + 1 < argc)
            refs = std::strtoull(argv[++i], nullptr, 0);
        else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc)
            seed = std::strtoull(argv[++i], nullptr, 0);
        else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc)
            jobs = unsigned(std::strtoul(argv[++i], nullptr, 0));
        else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
            out = argv[++i];
        else if (std::strcmp(argv[i], "--postmortem") == 0 &&
                 i + 1 < argc)
            pm_dir = argv[++i];
        else {
            std::fprintf(stderr,
                         "usage: %s [--soak] [--refs N] [--seed N] "
                         "[--jobs N] [--out soak.json] "
                         "[--postmortem <dir>]\n",
                         argv[0]);
            return 2;
        }
    }

    ChaosConfig cc;
    cc.seed = seed;
    cc.refs_per_phase = refs != 0 ? refs : (soak ? 200000 : 30000);
    cc.postmortem = !pm_dir.empty();

    if (!soak) {
        classicDemo();

        // Self-check: the same OOM story under adversarial pressure,
        // with the governor + watchdog live and every fill verified
        // against the expected-content model.
        std::printf("\n--- chaos self-check (compresso, %llu refs x "
                    "%zu phases) ---\n",
                    (unsigned long long)cc.refs_per_phase,
                    ChaosConfig::defaultPhases().size());
        ChaosEngine engine(cc);
        ChaosReport r = engine.run("compresso");
        printReport(r);
        if (!pm_dir.empty() && !dumpPostmortems(pm_dir, r))
            return 2;
        if (!r.passed)
            return 1;
        std::printf("\nall gates held: 0 silent corruptions, 0 audit "
                    "violations, stall p99 within %llu device ops.\n",
                    (unsigned long long)kChaosStallP99Bound);
        return 0;
    }

    SoakConfig sc;
    sc.chaos = cc;
    sc.jobs = jobs;
    std::printf("soak: %llu refs/phase, seed %llu, %u jobs, "
                "controllers",
                (unsigned long long)cc.refs_per_phase,
                (unsigned long long)seed, jobs);
    for (const std::string &k : ChaosEngine::allKinds())
        std::printf(" %s", k.c_str());
    std::printf("\n");

    SoakResult res = runSoak(sc);
    for (const ChaosReport &r : res.reports)
        printReport(r);

    if (!pm_dir.empty()) {
        for (const ChaosReport &r : res.reports)
            if (!dumpPostmortems(pm_dir, r))
                return 2;
    }

    if (!out.empty()) {
        if (!writeSoakJson(out, "balloon_oom", res)) {
            std::fprintf(stderr, "cannot write %s\n", out.c_str());
            return 2;
        }
        std::printf("\nwrote %s (%s)\n", out.c_str(), kSoakJsonSchema);
    }
    std::printf("\nsoak %s\n", res.allPassed() ? "PASSED" : "FAILED");
    return res.allPassed() ? 0 : 1;
}
