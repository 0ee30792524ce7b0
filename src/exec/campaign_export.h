/**
 * @file
 * Campaign document export: serializes a CampaignResult into the
 * versioned "compresso-campaign-v2" JSON document. One document holds
 * the whole sweep — per-job results (run jobs embed the same object
 * shape as a run document's `results[]`; custom jobs embed their named
 * scalars), cross-job aggregates per controller kind, the scheduling
 * summary (ok/failed, steals), and the environment stamp. v2 dropped
 * v1's per-job `attempts` and the summary's `timeout`, `skipped` and
 * `retries` once every job ran exactly once. tools/obs_report.py
 * reads this format alongside the run/bench documents (`check` /
 * `summary` / `diff`, and `gate` for bench campaigns).
 */

#ifndef COMPRESSO_EXEC_CAMPAIGN_EXPORT_H
#define COMPRESSO_EXEC_CAMPAIGN_EXPORT_H

#include <ostream>
#include <string>

#include "exec/campaign.h"
#include "sim/schema_versions.h"

namespace compresso {

/** Write the full campaign document to @p os. Key order is fixed and
 *  all maps iterate sorted, so output is deterministic for identical
 *  inputs (host-timing fields excepted). */
void writeCampaignJson(std::ostream &os, const std::string &tool,
                       const CampaignResult &res);

/** Path-taking overload; returns false on I/O failure. */
bool writeCampaignJson(const std::string &path, const std::string &tool,
                       const CampaignResult &res);

} // namespace compresso

#endif // COMPRESSO_EXEC_CAMPAIGN_EXPORT_H
