/**
 * @file
 * Post-mortem bundle export: serializes FlightRecorder bundles into
 * versioned "compresso-postmortem-v1" JSON documents, one file per
 * bundle, read by tools/obs_report.py (check / summary / triage /
 * diff).
 *
 * Document shape (key order is fixed; output is byte-identical for
 * identical bundles):
 *
 *   { schema, tool, bundle_index, tick,
 *     trigger: {kind, page, detail},
 *     triggers_total, triggers_suppressed,
 *     trigger_chain: [{kind, first_tick, last_tick, page, detail,
 *                      count}, ...],
 *     chain_dropped,
 *     ring: [{tick, page, detail, kind, comp}, ...],   // newest last
 *     ring_total, ring_dropped,
 *     latency_breakdown: {...},   // run-v3 shape (run_export.h)
 *     watermarks: [{tick, level, free_permille}, ...],
 *     watermarks_dropped,
 *     sections: {name: {counter: value, ...}, ...},
 *     notes: {key: value, ...},
 *     environment: {...} }        // same stamp as run documents
 *
 * Lives in the sim layer (not obs) on purpose: the obs-layer
 * FlightRecorder holds only generic data, and this writer reuses the
 * run exporter's latency-breakdown and environment-stamp shapes so
 * bundles diff cleanly against run documents.
 */

#ifndef COMPRESSO_SIM_POSTMORTEM_EXPORT_H
#define COMPRESSO_SIM_POSTMORTEM_EXPORT_H

#include <ostream>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "sim/schema_versions.h"

namespace compresso {

/** Write one bundle as a full postmortem document to @p os. */
void writePostmortemJson(std::ostream &os, const std::string &tool,
                         const PostmortemBundle &b);

/** Path-taking overload; returns false on I/O failure. */
bool writePostmortemJson(const std::string &path, const std::string &tool,
                         const PostmortemBundle &b);

/**
 * Write every bundle into @p dir (created if missing, parents
 * included) as <prefix><NNN>.json, NNN = zero-padded running index
 * starting at @p first_index. One file per bundle keeps documents
 * independently schema-checkable and diffable.
 * @return the number of files written, or -1 on I/O failure.
 */
int writePostmortemBundles(const std::string &dir, const std::string &tool,
                           const std::string &prefix,
                           const std::vector<PostmortemBundle> &bundles,
                           size_t first_index = 0);

} // namespace compresso

#endif // COMPRESSO_SIM_POSTMORTEM_EXPORT_H
