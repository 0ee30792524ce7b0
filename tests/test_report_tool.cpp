/**
 * @file
 * tools/obs_report.py against every document family. The library
 * writers produce each family in-process from small specs (run,
 * campaign, soak, service, post-mortem bundle); the bench family is
 * the committed bench/baselines/BENCH_quick.json. Every document must
 * pass check, summary and a diff against itself (bench: check and a
 * gate against itself), one targeted break per family must fail
 * check, and a seeded mutation pass (tests/report_tool_mutations.py)
 * must never make the tool raise. Also the run-v3 attribution export
 * round-trip and the post-mortem bundle round-trip.
 */

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "exec/campaign.h"
#include "exec/campaign_export.h"
#include "postmortem_samples.h"
#include "pressure/chaos.h"
#include "pressure/soak_export.h"
#include "service/service.h"
#include "service/service_export.h"
#include "sim/postmortem_export.h"
#include "sim/run_export.h"
#include "sim/runner.h"
#include "sim/schema_versions.h"

using namespace compresso;

namespace {

/** @p rel under the repository root (this file is tests/...). */
std::string
repoPath(const std::string &rel)
{
    std::string file = __FILE__;
    return file.substr(0, file.rfind('/')) + "/../" + rel;
}

bool
havePython()
{
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    return std::system("python3 -c 'pass' >/dev/null 2>&1") == 0;
}

/** Exit code of `python3 <script> <args>`; stdout and stderr land in
 *  @p output when given. */
int
runPython(const std::string &script, const std::string &args,
          std::string *output = nullptr)
{
    std::string cmd = "python3 " + repoPath(script) + " " + args + " 2>&1";
    FILE *pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr)
        return -1;
    std::string text;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0)
        text.append(buf, n);
    int status = pclose(pipe);
    if (output != nullptr)
        *output = text;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

int
runTool(const std::string &args, std::string *output = nullptr)
{
    return runPython("tools/obs_report.py", args, output);
}

std::string
writeFile(const std::string &name, const std::string &text)
{
    std::string path = testing::TempDir() + name;
    std::ofstream(path) << text;
    return path;
}

/** @p text with the first occurrence of @p from replaced by @p to. */
std::string
replaceFirst(std::string text, const std::string &from,
             const std::string &to)
{
    size_t pos = text.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    if (pos != std::string::npos)
        text.replace(pos, from.size(), to);
    return text;
}

/** @p text with the integer after the first `"key":` incremented. */
std::string
bumpFirst(const std::string &text, const std::string &key)
{
    std::string tag = "\"" + key + "\":";
    size_t pos = text.find(tag);
    if (pos == std::string::npos) {
        ADD_FAILURE() << "no " << tag;
        return text;
    }
    pos += tag.size();
    size_t end = text.find_first_not_of("0123456789", pos);
    uint64_t v = std::stoull(text.substr(pos, end - pos));
    return text.substr(0, pos) + std::to_string(v + 1) + text.substr(end);
}

// ---------------------------------------------------------------------
// One small document per family, from the library writers
// ---------------------------------------------------------------------

RunSpec
smallSpec()
{
    RunSpec spec;
    spec.kind = McKind::kCompresso;
    spec.workloads = {"gcc"};
    spec.refs_per_core = 6000;
    spec.warmup_refs = 600;
#ifndef COMPRESSO_OBS_DISABLED
    spec.obs.enabled = true;
#endif
    return spec;
}

std::string
runDoc()
{
    std::ostringstream os;
    writeRunsJson(os, "test_report_tool", {runSystem(smallSpec())});
    return os.str();
}

std::string
campaignDoc()
{
    Campaign c("report", /*campaign_seed=*/3);
    RunSpec spec = smallSpec();
    spec.refs_per_core = 2000;
    c.add("run/gcc", spec);
    c.add("custom", [](uint64_t) {
        JobPayload p;
        p.values["speedup"] = 1.25;
        return p;
    });
    c.add("broken", [](uint64_t) -> JobPayload {
        throw std::runtime_error("nope");
    });
    CampaignPolicy policy;
    policy.jobs = 1;
    policy.progress = ProgressMode::kOff;
    std::ostringstream os;
    writeCampaignJson(os, "test_report_tool", c.run(policy));
    return os.str();
}

std::string
soakDoc()
{
    SoakConfig sc;
    sc.chaos.refs_per_phase = 1000;
    sc.chaos.phases = {ChaosScenario::kCalm, ChaosScenario::kFaultBurst};
    sc.kinds = {"compresso"};
    std::ostringstream os;
    writeSoakJson(os, "test_report_tool", runSoak(sc));
    return os.str();
}

std::string
serviceDoc()
{
    ServiceConfig cfg;
    cfg.seed = 7;
    for (const char *profile : {"gcc", "mcf"}) {
        TenantSpec t;
        t.name = std::string("t-") + profile;
        t.pages = 64;
        t.profile = profile;
        cfg.tenants.push_back(t);
    }
    cfg.rounds = 2;
    cfg.refs_per_round = 128;
    cfg.compresso.mdcache = MetadataCacheConfig{4 * 1024, 8, false};
    std::ostringstream os;
    writeServiceJson(os, "test_report_tool", runService(cfg));
    return os.str();
}

std::string
bundleDoc()
{
    std::ostringstream os;
    writePostmortemJson(os, "test_report_tool", sampleBundle());
    return os.str();
}

std::string
benchPath()
{
    return repoPath("bench/baselines/BENCH_quick.json");
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** check, summary and a self-diff all exit 0; check fails after
 *  @p broken. */
void
expectRoundTrip(const std::string &name, const std::string &doc,
                const std::string &broken)
{
    std::string path = writeFile(name + ".json", doc);
    std::string out;
    EXPECT_EQ(runTool("check " + path, &out), 0) << out;
    EXPECT_EQ(runTool("summary " + path, &out), 0) << out;
    EXPECT_EQ(runTool("diff " + path + " " + path, &out), 0) << out;
    std::string bad = writeFile(name + "_broken.json", broken);
    EXPECT_EQ(runTool("check " + bad, &out), 1) << out;
    EXPECT_EQ(out.find("Traceback"), std::string::npos) << out;
}

TEST(ReportTool, RunDocument)
{
    if (!havePython())
        GTEST_SKIP() << "python3 unavailable";
    std::string doc = runDoc();
    // A component-cycle sum off by one.
    expectRoundTrip("report_run", doc, bumpFirst(doc, "total_cycles"));
}

TEST(ReportTool, CampaignDocument)
{
    if (!havePython())
        GTEST_SKIP() << "python3 unavailable";
    std::string doc = campaignDoc();
    // summary.ok off by one.
    expectRoundTrip("report_campaign", doc, bumpFirst(doc, "ok"));
}

TEST(ReportTool, SoakDocument)
{
    if (!havePython())
        GTEST_SKIP() << "python3 unavailable";
    std::string doc = soakDoc();
    // A report's total_refs off by one against its phases.
    expectRoundTrip("report_soak", doc, bumpFirst(doc, "total_refs"));
}

TEST(ReportTool, ServiceDocument)
{
    if (!havePython())
        GTEST_SKIP() << "python3 unavailable";
    std::string doc = serviceDoc();
    // The envelope's total_refs off by one against its tenants.
    expectRoundTrip("report_service", doc, bumpFirst(doc, "total_refs"));
}

TEST(ReportTool, PostmortemDocument)
{
    if (!havePython())
        GTEST_SKIP() << "python3 unavailable";
    std::string doc = bundleDoc();
    // Chain counts + chain_dropped no longer reach triggers_total.
    expectRoundTrip("report_bundle", doc, bumpFirst(doc, "triggers_total"));
}

TEST(ReportTool, BenchDocument)
{
    if (!havePython())
        GTEST_SKIP() << "python3 unavailable";
    std::string base = benchPath();
    std::string out;
    EXPECT_EQ(runTool("check " + base, &out), 0) << out;
    EXPECT_EQ(runTool("gate " + base + " " + base, &out), 0) << out;
    // A host median that is not a number.
    std::string bad = writeFile(
        "report_bench_broken.json",
        replaceFirst(readFile(base), "\"median\":", "\"median\":\"\",\"x\":"));
    EXPECT_EQ(runTool("check " + bad, &out), 1) << out;
    EXPECT_EQ(runTool("gate " + base + " " + bad, &out), 1) << out;
}

TEST(ReportTool, GateFailsOnSimulatedDrift)
{
    if (!havePython())
        GTEST_SKIP() << "python3 unavailable";
    std::string base = benchPath();
    std::string drifted = writeFile(
        "report_bench_drift.json",
        replaceFirst(readFile(base), "\"perf\":", "\"perf\":1e-9,\"was\":"));
    std::string out;
    EXPECT_EQ(runTool("gate " + base + " " + drifted, &out), 1) << out;
    EXPECT_NE(out.find("simulated metrics moved"), std::string::npos)
        << out;
}

TEST(ReportTool, DiffPairsRepeatedLabelsByOccurrence)
{
    // A bench may reuse a label across configurations; a difference
    // in an earlier occurrence must not be hidden by a later one.
    if (!havePython())
        GTEST_SKIP() << "python3 unavailable";
    RunResult r = runSystem(smallSpec());
    RunResult moved = r;
    moved.comp_ratio += 0.5;
    std::ostringstream same, first_moved;
    writeRunsJson(same, "test_report_tool", {r, r});
    writeRunsJson(first_moved, "test_report_tool", {moved, r});
    std::string a = writeFile("report_repeat_a.json", same.str());
    std::string b = writeFile("report_repeat_b.json", first_moved.str());
    std::string out;
    EXPECT_EQ(runTool("diff " + a + " " + a, &out), 0) << out;
    EXPECT_EQ(runTool("diff " + a + " " + b, &out), 1) << out;
    EXPECT_NE(out.find("1/2 shared records differ"), std::string::npos)
        << out;
}

TEST(ReportTool, DiffAcrossFamiliesIsAUsageError)
{
    if (!havePython())
        GTEST_SKIP() << "python3 unavailable";
    std::string soak = writeFile("report_soak_x.json", soakDoc());
    std::string bundle = writeFile("report_bundle_x.json", bundleDoc());
    EXPECT_EQ(runTool("diff " + soak + " " + bundle), 2);
}

/** The path of @p family's document for the mutation pass. */
std::string
mutationDoc(const std::string &family)
{
    if (family == "run")
        return writeFile("mut_run.json", runDoc());
    if (family == "campaign")
        return writeFile("mut_campaign.json", campaignDoc());
    if (family == "soak")
        return writeFile("mut_soak.json", soakDoc());
    if (family == "service")
        return writeFile("mut_service.json", serviceDoc());
    if (family == "postmortem")
        return writeFile("mut_bundle.json", bundleDoc());
    return benchPath();
}

/** One mutation pass per document family, so ctest can run them side
 *  by side. */
class ReportToolMutation : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ReportToolMutation, MutationPassNeverRaises)
{
    if (!havePython())
        GTEST_SKIP() << "python3 unavailable";
    std::string out;
    int rc = runPython("tests/report_tool_mutations.py",
                       repoPath("tools/obs_report.py") + " 1 " +
                           mutationDoc(GetParam()),
                       &out);
    EXPECT_EQ(rc, 0) << out;
    EXPECT_EQ(out.find("Traceback"), std::string::npos) << out;
}

INSTANTIATE_TEST_SUITE_P(Families, ReportToolMutation,
                         ::testing::Values("run", "campaign", "soak",
                                           "service", "postmortem",
                                           "bench"),
                         [](const auto &info) { return info.param; });

// ---------------------------------------------------------------------
// Run-v3 attribution export and post-mortem bundle round-trips
// ---------------------------------------------------------------------

/** The run document, optionally re-stamped with the retired second
 *  generation of the run schema (the tag is derived from the canonical
 *  constant so the literal stays confined to sim/schema_versions.h). */
std::string
writeRunDoc(const std::string &name, bool as_v2)
{
    std::string doc = runDoc();
    if (as_v2) {
        std::string v3 = kRunJsonSchema;
        doc = replaceFirst(doc, v3, v3.substr(0, v3.size() - 1) + "2");
    }
    return writeFile(name, doc);
}

TEST(AttribExport, V3DocumentPassesCheckSummaryAndBreakdown)
{
    if (!havePython())
        GTEST_SKIP() << "python3 unavailable";
    std::string path = writeRunDoc("attrib_v3.json", /*as_v2=*/false);
    EXPECT_EQ(runTool("check " + path), 0);
    EXPECT_EQ(runTool("summary " + path), 0);
#ifndef COMPRESSO_OBS_DISABLED
    EXPECT_EQ(runTool("breakdown " + path + " --max-share 100"), 0);
    EXPECT_EQ(runTool("exemplars " + path), 0);
#endif
    std::remove(path.c_str());
}

TEST(AttribExport, V2DocumentIsRejectedNamingSupportedSchemas)
{
    if (!havePython())
        GTEST_SKIP() << "python3 unavailable";
    std::string path = writeRunDoc("attrib_v2.json", /*as_v2=*/true);
    std::string out;
    EXPECT_EQ(runTool("check " + path, &out), 1);
    for (const char *schema : {kRunJsonSchema, kCampaignJsonSchema,
                               kSoakJsonSchema, kBenchJsonSchema,
                               kPostmortemJsonSchema, kServiceJsonSchema})
        EXPECT_NE(out.find(schema), std::string::npos) << out;
    std::remove(path.c_str());
}

TEST(AttribExport, DiffFailsAcrossSchemaGenerations)
{
    if (!havePython())
        GTEST_SKIP() << "python3 unavailable";
    std::string v3 = writeRunDoc("attrib_d3.json", /*as_v2=*/false);
    std::string v2 = writeRunDoc("attrib_d2.json", /*as_v2=*/true);
    EXPECT_EQ(runTool("diff " + v3 + " " + v3), 0);
    // The retired generation is not a readable document: the diff
    // cannot pass for a clean compare.
    EXPECT_NE(runTool("diff " + v2 + " " + v3), 0);
    std::remove(v3.c_str());
    std::remove(v2.c_str());
}

TEST(PostmortemExport, BundlePassesPythonValidator)
{
    if (!havePython())
        GTEST_SKIP() << "python3 unavailable";
    std::string path =
        testing::TempDir() + "flight_recorder_bundle.json";
    ASSERT_TRUE(
        writePostmortemJson(path, "test_flight_recorder",
                            sampleBundle()));
    EXPECT_EQ(runTool("check " + path), 0);
    EXPECT_EQ(runTool("summary " + path), 0);
    EXPECT_EQ(runTool("triage " + path), 0);
    // Identical bundles diff clean (exit 0).
    EXPECT_EQ(runTool("diff " + path + " " + path), 0);
}

} // namespace
