/**
 * @file
 * Replay an external memory trace through the compressed memory
 * system — the adoption path for users who have their own traces
 * instead of our synthetic profiles.
 *
 * Usage:
 *   ./build/examples/trace_replay <trace-file> [backend] [--json out]
 *   ./build/examples/trace_replay --demo [backend] [--json out]
 *
 * backend: uncompressed | lcp | lcp+align | compresso (default)
 * --json writes the replay metrics as a compresso-run-v3 document
 * (tools/obs_report.py reads it).
 *
 * Trace format (text, '#' comments):
 *   R <hex-addr> [inst-gap]
 *   W <hex-addr> [inst-gap] [class[:version]]
 * where class is one of the data classes in workloads/datagen.h
 * (zero, constant, small-int, delta-int, float, pointer, text,
 * random), approximating the written data's compressibility.
 */

#include <cstdio>
#include <fstream>
#include <sstream>

#include "sim/run_export.h"
#include "sim/trace.h"

using namespace compresso;

namespace {

/** Build a small demonstration trace: zero-init then live data. */
std::string
demoTrace()
{
    std::ostringstream os;
    os << "# demo: initialize 64 pages with zeros, then stream\n";
    os << "# delta-int data through half of them and read it back\n";
    Rng rng(1);
    for (unsigned p = 0; p < 256; ++p)
        for (unsigned l = 0; l < kLinesPerPage; ++l) {
            TraceRecord rec;
            rec.addr = Addr(p) * kPageBytes + l * kLineBytes;
            rec.write = true;
            rec.cls = DataClass::kZero;
            writeTraceRecord(os, rec);
        }
    for (unsigned p = 0; p < 128; ++p)
        for (unsigned l = 0; l < kLinesPerPage; ++l) {
            TraceRecord rec;
            rec.addr = Addr(p) * kPageBytes + l * kLineBytes;
            rec.write = true;
            rec.cls = DataClass::kDeltaInt;
            rec.version = 1;
            writeTraceRecord(os, rec);
        }
    for (unsigned i = 0; i < 4096; ++i) {
        TraceRecord rec;
        rec.addr = Addr(rng.below(256)) * kPageBytes +
                   rng.below(kLinesPerPage) * kLineBytes;
        writeTraceRecord(os, rec);
    }
    return os.str();
}

McKind
parseBackend(const std::string &name)
{
    if (name == "uncompressed")
        return McKind::kUncompressed;
    if (name == "lcp")
        return McKind::kLcp;
    if (name == "lcp+align")
        return McKind::kLcpAlign;
    return McKind::kCompresso;
}

} // namespace

int
main(int argc, char **argv)
{
    RunSink sink;
    sink.init(argc, argv, "trace_replay");
    const std::vector<std::string> &args = sink.extraArgs();
    if (args.empty()) {
        std::fprintf(stderr,
                     "usage: %s <trace-file>|--demo [backend] "
                     "[--json out]\n",
                     argv[0]);
        return 1;
    }
    McKind kind =
        parseBackend(args.size() > 1 ? args[1] : "compresso");

    TraceReplayReport rep;
    if (args[0] == "--demo") {
        std::istringstream in(demoTrace());
        TraceReader reader(in);
        rep = replayTrace(kind, reader);
        std::printf("replayed built-in demo trace (%llu records)\n",
                    (unsigned long long)reader.parsed());
    } else {
        std::ifstream in(args[0]);
        if (!in) {
            std::fprintf(stderr, "cannot open %s\n", args[0].c_str());
            return 1;
        }
        TraceReader reader(in);
        rep = replayTrace(kind, reader);
        std::printf("replayed %s (%llu records, %llu skipped)\n",
                    args[0].c_str(), (unsigned long long)reader.parsed(),
                    (unsigned long long)reader.skipped());
    }

    std::printf("backend:            %s\n", mcKindName(kind));
    std::printf("references:         %llu (%llu R / %llu W)\n",
                (unsigned long long)rep.references,
                (unsigned long long)rep.reads,
                (unsigned long long)rep.writes);
    std::printf("cycles:             %llu (IPC %.2f)\n",
                (unsigned long long)rep.cycles, rep.ipc);
    std::printf("compression ratio:  %.2fx\n", rep.comp_ratio);
    std::printf("memory fills:       %llu (%llu zero-shortcut)\n",
                (unsigned long long)rep.mc_stats.get("fills"),
                (unsigned long long)rep.mc_stats.get("zero_fills"));
    std::printf("DRAM accesses:      %llu reads, %llu writes\n",
                (unsigned long long)rep.dram_stats.get("reads"),
                (unsigned long long)rep.dram_stats.get("writes"));

    // Fold the replay report into the shared run-JSON shape so the
    // same tooling reads profile-driven and trace-driven results.
    RunResult r;
    r.label = mcKindName(kind);
    r.cycles = double(rep.cycles);
    r.insts = rep.references;
    r.perf = rep.ipc;
    r.comp_ratio = rep.comp_ratio;
    r.mc_stats = rep.mc_stats;
    r.dram_stats = rep.dram_stats;
    sink.add(r);
    return sink.finish();
}
