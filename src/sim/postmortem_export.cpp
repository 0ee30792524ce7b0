#include "sim/postmortem_export.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/json_writer.h"
#include "sim/run_export.h"

namespace compresso {

namespace {

/** Watermark-level names. The obs layer stores the level as a raw
 *  ordinal (it cannot see pressure/governor.h); keep this table in
 *  sync with pressureLevelName() and tools/obs_report.py's LEVELS
 *  vocabulary. */
const char *
levelName(uint32_t level)
{
    switch (level) {
    case 0:
        return "normal";
    case 1:
        return "elevated";
    case 2:
        return "critical";
    case 3:
        return "emergency";
    default:
        return "unknown";
    }
}

} // namespace

void
writePostmortemJson(std::ostream &os, const std::string &tool,
                    const PostmortemBundle &b)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", kPostmortemJsonSchema);
    w.field("tool", tool);
    w.field("bundle_index", b.index);
    w.field("tick", b.tick);
    w.key("trigger").beginObject();
    w.field("kind", postmortemTriggerName(b.trigger));
    w.field("page", b.trigger_page);
    w.field("detail", uint64_t(b.trigger_detail));
    w.endObject();
    w.field("triggers_total", b.triggers_total);
    w.field("triggers_suppressed", b.triggers_suppressed);
    w.key("trigger_chain").beginArray();
    for (const PostmortemTriggerEntry &e : b.chain) {
        w.beginObject();
        w.field("kind", postmortemTriggerName(e.kind));
        w.field("first_tick", e.first_tick);
        w.field("last_tick", e.last_tick);
        w.field("page", e.page);
        w.field("detail", uint64_t(e.detail));
        w.field("count", e.count);
        w.endObject();
    }
    w.endArray();
    w.field("chain_dropped", b.chain_dropped);
    w.key("ring").beginArray();
    for (const PostmortemRingEvent &e : b.ring) {
        w.beginObject();
        w.field("tick", e.tick);
        w.field("page", e.page);
        w.field("detail", uint64_t(e.detail));
        w.field("kind", obsEventName(e.kind));
        w.field("comp", attribCompName(obsEventComp(e.kind)));
        w.endObject();
    }
    w.endArray();
    w.field("ring_total", b.ring_total);
    w.field("ring_dropped", b.ring_dropped);
    w.key("latency_breakdown");
    writeLatencyBreakdownJson(w, b.attrib);
    w.key("watermarks").beginArray();
    for (const PostmortemWatermark &m : b.watermarks) {
        w.beginObject();
        w.field("tick", m.tick);
        w.field("level", levelName(m.level));
        w.field("free_permille", uint64_t(m.free_permille));
        w.endObject();
    }
    w.endArray();
    w.field("watermarks_dropped", b.watermarks_dropped);
    w.key("sections").beginObject();
    for (const auto &[name, counters] : b.sections) {
        w.key(name).beginObject();
        for (const auto &[key, val] : counters)
            w.field(key, val);
        w.endObject();
    }
    w.endObject();
    w.key("notes").beginObject();
    for (const auto &[key, val] : b.notes)
        w.field(key, val);
    w.endObject();
    w.key("environment");
    writeEnvironmentJson(w);
    w.endObject();
    os << "\n";
}

bool
writePostmortemJson(const std::string &path, const std::string &tool,
                    const PostmortemBundle &b)
{
    std::ofstream os(path);
    if (!os)
        return false;
    writePostmortemJson(os, tool, b);
    return bool(os);
}

int
writePostmortemBundles(const std::string &dir, const std::string &tool,
                       const std::string &prefix,
                       const std::vector<PostmortemBundle> &bundles,
                       size_t first_index)
{
    if (bundles.empty())
        return 0;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        return -1;
    int written = 0;
    for (size_t i = 0; i < bundles.size(); ++i) {
        char num[16];
        std::snprintf(num, sizeof(num), "%03zu", first_index + i);
        std::filesystem::path path =
            std::filesystem::path(dir) / (prefix + num + ".json");
        if (!writePostmortemJson(path.string(), tool, bundles[i]))
            return -1;
        ++written;
    }
    return written;
}

} // namespace compresso
