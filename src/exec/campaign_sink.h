/**
 * @file
 * Bridge between the campaign engine and the shared RunSink CLI layer:
 * one call that runs a campaign with the CLI-selected worker count
 * (`--jobs` / COMPRESSO_JOBS), feeds every successful run result back
 * into the sink (so `--json` still captures the same rows, in
 * submission order, as the old serial loop), and writes the merged
 * campaign document when `--campaign-json` was given.
 */

#ifndef COMPRESSO_EXEC_CAMPAIGN_SINK_H
#define COMPRESSO_EXEC_CAMPAIGN_SINK_H

#include "exec/campaign.h"
#include "sim/run_export.h"

namespace compresso {

/**
 * Run @p campaign for a binary built on RunSink. When
 * @p policy.jobs == 0 the worker count comes from sink.jobs() (the
 * --jobs flag, else COMPRESSO_JOBS, else hardware concurrency).
 * Failed jobs are reported on stderr with their error; callers decide
 * whether a partial campaign is fatal (check .allOk()).
 */
CampaignResult runCampaignWithSink(const Campaign &campaign,
                                   RunSink &sink,
                                   CampaignPolicy policy = {});

} // namespace compresso

#endif // COMPRESSO_EXEC_CAMPAIGN_SINK_H
