#include "exec/campaign_export.h"

#include <fstream>

#include "common/json_writer.h"
#include "obs/attrib.h"
#include "sim/run_export.h"

namespace compresso {

namespace {

void
writeStatGroup(JsonWriter &w, const StatGroup &g)
{
    w.beginObject();
    for (const auto &[name, val] : g.counters())
        w.field(name, val);
    w.endObject();
}

void
writeJob(JsonWriter &w, const JobRecord &rec)
{
    w.beginObject();
    w.field("label", rec.label);
    w.field("index", uint64_t(rec.index));
    w.field("status", jobStatusName(rec.status));
    w.field("seed", rec.seed);
    w.field("host_ns", rec.host_ns);
    if (!rec.error.empty())
        w.field("error", rec.error);
    if (rec.ok()) {
        if (rec.payload.has_run) {
            w.key("result");
            writeRunResultJson(w, rec.payload.run);
        } else {
            w.key("values").beginObject();
            for (const auto &[name, val] : rec.payload.values)
                w.field(name, val);
            w.endObject();
        }
    }
    w.endObject();
}

} // namespace

void
writeCampaignJson(std::ostream &os, const std::string &tool,
                  const CampaignResult &res)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", kCampaignJsonSchema);
    w.field("tool", tool);
    w.field("campaign", res.name);
    w.field("campaign_seed", res.campaign_seed);
    w.field("pool_jobs", uint64_t(res.pool_jobs));
    w.field("wall_ns", res.wall_ns);
    w.key("environment");
    writeEnvironmentJson(w);
    w.key("summary").beginObject();
    w.field("total", uint64_t(res.records.size()));
    w.field("ok", uint64_t(res.ok));
    w.field("failed", uint64_t(res.failed));
    w.field("steals", res.steals);
    w.endObject();
    w.key("jobs").beginArray();
    for (const JobRecord &rec : res.records)
        writeJob(w, rec);
    w.endArray();
    w.key("aggregates").beginObject();
    for (const auto &[kind, agg] : res.aggregates) {
        w.key(kind).beginObject();
        w.field("jobs", agg.jobs);
        w.field("host_ns", agg.host_ns);
        w.field("key_mismatches", agg.key_mismatches);
        w.key("mc_stats");
        writeStatGroup(w, agg.mc_stats);
        w.key("dram_stats");
        writeStatGroup(w, agg.dram_stats);
        // Merged simulated-cycle attribution (DESIGN.md §15); summed
        // over the kind's ok run-jobs, all-zero when obs was off.
        w.key("latency_breakdown").beginObject();
        w.field("refs", agg.attrib_refs);
        w.field("total_cycles", agg.attrib_cycles);
        w.field("conservation_failures",
                agg.attrib_conservation_failures);
        w.key("components").beginObject();
        for (size_t c = 0; c < kAttribComps; ++c) {
            w.key(attribCompName(AttribComp(c))).beginObject();
            w.field("cycles", agg.attrib_comp_cycles[c]);
            w.field("background_cycles", agg.attrib_comp_background[c]);
            w.endObject();
        }
        w.endObject();
        w.endObject();
        w.endObject();
    }
    w.endObject();
    w.endObject();
    os << "\n";
}

bool
writeCampaignJson(const std::string &path, const std::string &tool,
                  const CampaignResult &res)
{
    std::ofstream os(path);
    if (!os)
        return false;
    writeCampaignJson(os, tool, res);
    return bool(os);
}

} // namespace compresso
