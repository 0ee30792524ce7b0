/**
 * @file
 * Multi-tenant service mode: one shared Compresso controller serving N
 * tenant sessions with QoS isolation (DESIGN.md §17).
 *
 * Carves the OSPA space into per-tenant partitions, streams each
 * tenant's synthetic workload through the shared compressed-memory
 * stack, and enforces the isolation contract:
 * per-tenant inflation budgets, admission shedding of over-budget
 * tenants under pressure, tenant-scoped ballooning that can only ever
 * reclaim the victim's own pages, and a partition audit over every
 * backed page. Exit 0 means every gate held: zero silent corruptions,
 * zero invariant-audit violations, zero partition-audit violations.
 *
 * Build & run:  ./build/examples/tenant_service
 *               ./build/examples/tenant_service --tenants 8 --jobs 2 \
 *                   [--rounds N] [--refs N] [--seed N] \
 *                   [--adversary I] [--rotate N] [--pages N] \
 *                   [--out svc.json] [--postmortem <dir>]
 *
 * --adversary I makes tenant I hostile (page-random incompressible
 * writes across its partition); --rotate N instead rotates the hostile
 * role across tenants every N rounds. --out writes the merged
 * compresso-service-v1 document (byte-identical at any --jobs count)
 * for tools/obs_report.py; --postmortem writes tenant-tagged
 * compresso-postmortem-v1 bundles for `tools/obs_report.py triage`.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "service/service.h"
#include "service/service_export.h"
#include "sim/postmortem_export.h"

using namespace compresso;

namespace {

/** Default tenant personalities: a compressibility spread (Fig. 2). */
const char *const kProfiles[] = {"gcc",     "mcf",        "bzip2",
                                 "gromacs", "h264ref",    "libquantum",
                                 "astar",   "Pagerank"};

void
printTenant(const TenantReport &t)
{
    std::printf("  %-10s %-11s %s refs %7llu shed %5llu | p99 %5llu "
                "max %6llu | md %7llu denied %4llu+%-4llu | ratio "
                "%.2f eff %.2f | lost %4llu drop %3llu corrupt %llu\n",
                t.name.c_str(), t.profile.c_str(),
                t.adversary ? "ADV " : "    ",
                (unsigned long long)t.refs, (unsigned long long)t.shed,
                (unsigned long long)t.lat_p99,
                (unsigned long long)t.lat_max,
                (unsigned long long)t.md_ops,
                (unsigned long long)t.gov_denied,
                (unsigned long long)t.inflation_denied, t.comp_ratio,
                t.effective_ratio, (unsigned long long)t.pages_lost,
                (unsigned long long)t.oom_dropped_writes,
                (unsigned long long)t.verify_failures);
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned tenants = 8, jobs = 1;
    uint64_t rounds = 32, refs = 512, seed = 1, pages = 192;
    uint64_t rotate = 0;
    long adversary = -1;
    std::string out, pm_dir;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--tenants") == 0 && i + 1 < argc)
            tenants = unsigned(std::strtoul(argv[++i], nullptr, 0));
        else if (std::strcmp(argv[i], "--rounds") == 0 && i + 1 < argc)
            rounds = std::strtoull(argv[++i], nullptr, 0);
        else if (std::strcmp(argv[i], "--refs") == 0 && i + 1 < argc)
            refs = std::strtoull(argv[++i], nullptr, 0);
        else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc)
            seed = std::strtoull(argv[++i], nullptr, 0);
        else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc)
            jobs = unsigned(std::strtoul(argv[++i], nullptr, 0));
        else if (std::strcmp(argv[i], "--pages") == 0 && i + 1 < argc)
            pages = std::strtoull(argv[++i], nullptr, 0);
        else if (std::strcmp(argv[i], "--rotate") == 0 && i + 1 < argc)
            rotate = std::strtoull(argv[++i], nullptr, 0);
        else if (std::strcmp(argv[i], "--adversary") == 0 &&
                 i + 1 < argc)
            adversary = std::strtol(argv[++i], nullptr, 0);
        else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
            out = argv[++i];
        else if (std::strcmp(argv[i], "--postmortem") == 0 &&
                 i + 1 < argc)
            pm_dir = argv[++i];
        else {
            std::fprintf(
                stderr,
                "usage: %s [--tenants N] [--rounds N] [--refs N] "
                "[--seed N] [--jobs N] [--pages N] [--adversary I] "
                "[--rotate N] [--out svc.json] [--postmortem <dir>]\n",
                argv[0]);
            return 2;
        }
    }
    if (tenants == 0)
        tenants = 1;

    ServiceConfig cfg;
    cfg.seed = seed;
    cfg.rounds = rounds;
    cfg.refs_per_round = refs;
    cfg.jobs = jobs;
    cfg.postmortem = !pm_dir.empty();
    cfg.adversary_rotate_every = rotate;
    // Small metadata cache: the md-traffic fairness dimension only
    // shows when misses are common.
    cfg.compresso.mdcache = MetadataCacheConfig{8 * 1024, 8, false};
    for (unsigned t = 0; t < tenants; ++t) {
        TenantSpec spec;
        spec.name = "tenant" + std::to_string(t);
        spec.pages = pages;
        spec.profile = kProfiles[t % (sizeof(kProfiles) /
                                      sizeof(kProfiles[0]))];
        spec.adversary = long(t) == adversary;
        cfg.tenants.push_back(spec);
    }

    std::printf("service: %u tenants x %llu pages, %llu rounds x %llu "
                "refs, seed %llu, jobs %u\n\n",
                tenants, (unsigned long long)pages,
                (unsigned long long)rounds, (unsigned long long)refs,
                (unsigned long long)seed, jobs);

    ServiceResult res = runService(cfg);

    for (const TenantReport &t : res.tenants)
        printTenant(t);
    std::printf("\npressure: end %s max %u | oom %llu (rescued %llu) "
                "| rebalances %llu (%llu pages)\n",
                res.level_end.c_str(), res.max_level,
                (unsigned long long)res.oom_events,
                (unsigned long long)res.oom_rescued,
                (unsigned long long)res.rebalances,
                (unsigned long long)res.rebalance_pages);
    std::printf("isolation: cross-partition refusals %llu (balloon "
                "%llu, os %llu) | audit %llu partition-audit %llu | "
                "silent corruptions %llu\n",
                (unsigned long long)res.cross_partition_attempts,
                (unsigned long long)res.balloon_partition_rejects,
                (unsigned long long)res.os_window_rejects,
                (unsigned long long)res.audit_violations,
                (unsigned long long)res.partition_audit_violations,
                (unsigned long long)res.silent_corruptions);
    std::printf("capacity: ratio %.2f effective %.2f over %llu refs\n",
                res.comp_ratio, res.effective_ratio,
                (unsigned long long)res.total_refs);

    if (!pm_dir.empty()) {
        int n = writePostmortemBundles(pm_dir, "tenant_service",
                                       "postmortem-service-",
                                       res.postmortems);
        if (n < 0) {
            std::fprintf(stderr,
                         "cannot write post-mortem bundles under %s\n",
                         pm_dir.c_str());
            return 2;
        }
        std::printf("wrote %d post-mortem bundle%s under %s (%s)\n", n,
                    n == 1 ? "" : "s", pm_dir.c_str(),
                    kPostmortemJsonSchema);
    }
    if (!out.empty()) {
        if (!writeServiceJson(out, "tenant_service", res)) {
            std::fprintf(stderr, "cannot write %s\n", out.c_str());
            return 2;
        }
        std::printf("wrote %s (%s)\n", out.c_str(), kServiceJsonSchema);
    }

    bool ok = res.silent_corruptions == 0 &&
              res.audit_violations == 0 &&
              res.partition_audit_violations == 0;
    std::printf("\nservice %s\n", ok ? "PASSED" : "FAILED");
    return ok ? 0 : 1;
}
