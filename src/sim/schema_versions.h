/**
 * @file
 * Single source of truth for every versioned JSON schema identifier
 * the exporters stamp into their documents. One header, one constant
 * per document family, shared by all writers. tools/obs_report.py
 * keys its family table by these strings, and
 * tools/check_schema_versions.py (a ctest) asserts the two name the
 * same set of schemas and that no exporter re-declares a literal
 * outside this header.
 *
 * Bump a constant only together with its reader-side update; document
 * history lives with each exporter:
 *  - run:        src/sim/run_export.h        (v1 -> v2 host_profile,
 *                                             v3 latency_breakdown)
 *  - campaign:   src/exec/campaign_export.h  (v2 run-once: no
 *                                             attempts/retries)
 *  - soak:       src/pressure/soak_export.h
 *  - bench:      bench/bench_runner.cpp
 *  - postmortem: src/sim/postmortem_export.h (DESIGN.md §16)
 *  - service:    src/service/service_export.h (DESIGN.md §17)
 */

#ifndef COMPRESSO_SIM_SCHEMA_VERSIONS_H
#define COMPRESSO_SIM_SCHEMA_VERSIONS_H

namespace compresso {

/** Run documents (`--json`, src/sim/run_export.h). */
inline constexpr const char *kRunJsonSchema = "compresso-run-v3";

/** Merged campaign documents (`--campaign-json`,
 *  src/exec/campaign_export.h). */
inline constexpr const char *kCampaignJsonSchema =
    "compresso-campaign-v2";

/** Chaos/soak documents (`balloon_oom --soak --out`,
 *  src/pressure/soak_export.h). */
inline constexpr const char *kSoakJsonSchema = "compresso-soak-v1";

/** Benchmark suite documents (bench/bench_runner.cpp). */
inline constexpr const char *kBenchJsonSchema = "compresso-bench-v1";

/** Post-mortem diagnostic bundles (`--postmortem <dir>`,
 *  src/sim/postmortem_export.h). */
inline constexpr const char *kPostmortemJsonSchema =
    "compresso-postmortem-v1";

/** Multi-tenant service documents (`tenant_service --out`,
 *  src/service/service_export.h). */
inline constexpr const char *kServiceJsonSchema =
    "compresso-service-v1";

} // namespace compresso

#endif // COMPRESSO_SIM_SCHEMA_VERSIONS_H
