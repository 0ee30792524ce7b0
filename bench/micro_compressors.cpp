/**
 * @file
 * Microbenchmarks (google-benchmark): compressor throughput per
 * algorithm and data class (encode, size-only and decode),
 * offset-circuit computation, and metadata entry codec — the
 * Sec. VII-C/D/E hardware-cost discussion's software counterpart.
 */

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "compress/factory.h"
#include "core/offset_circuit.h"
#include "meta/metadata_entry.h"
#include "prof/profiler.h"
#include "workloads/datagen.h"

using namespace compresso;

namespace {

Line
lineFor(DataClass c)
{
    Line l;
    generateLine(c, 42, l);
    return l;
}

void
BM_Compress(benchmark::State &state, const std::string &algo,
            DataClass cls)
{
    auto codec = makeCompressor(algo);
    Line line = lineFor(cls);
    for (auto _ : state) {
        BitWriter w;
        benchmark::DoNotOptimize(codec->compress(line, w));
    }
    state.SetBytesProcessed(int64_t(state.iterations()) * kLineBytes);
}

/** The size-only path (compressedBits) the ratio experiments use. */
void
BM_Size(benchmark::State &state, const std::string &algo, DataClass cls)
{
    auto codec = makeCompressor(algo);
    Line line = lineFor(cls);
    for (auto _ : state)
        benchmark::DoNotOptimize(codec->compressedBits(line));
    state.SetBytesProcessed(int64_t(state.iterations()) * kLineBytes);
}

void
BM_Decompress(benchmark::State &state, const std::string &algo,
              DataClass cls)
{
    auto codec = makeCompressor(algo);
    Line line = lineFor(cls);
    BitWriter w;
    codec->compress(line, w);
    Line out;
    for (auto _ : state) {
        BitReader r(w.bytes().data(), w.bitSize());
        benchmark::DoNotOptimize(codec->decompress(r, out));
    }
    state.SetBytesProcessed(int64_t(state.iterations()) * kLineBytes);
}

void
BM_OffsetCircuit(benchmark::State &state)
{
    OffsetCircuit oc(compressoBins());
    std::array<uint8_t, kLinesPerPage> codes;
    for (size_t i = 0; i < codes.size(); ++i)
        codes[i] = uint8_t(i % 4);
    for (auto _ : state)
        benchmark::DoNotOptimize(oc.offset(codes, 63));
}

void
BM_MetadataCodec(benchmark::State &state)
{
    MetadataEntry m;
    m.valid = true;
    m.compressed = true;
    m.chunks = 5;
    for (size_t i = 0; i < kLinesPerPage; ++i)
        m.line_code[i] = uint8_t(i % 4);
    for (auto _ : state) {
        auto raw = m.pack();
        MetadataEntry out;
        benchmark::DoNotOptimize(MetadataEntry::unpack(raw, out));
    }
}

#ifndef COMPRESSO_PROF_DISABLED
/** Cross-check google-benchmark with the in-simulator profiler: drive
 *  every distinct kernel through its own CPR_PROF_SCOPE and print
 *  ns/line + MB/s from the snapshot. These are the same counters a
 *  `--prof` simulation reports, so the table calibrates how much of a
 *  run's host time the kernels themselves explain. */
void
profiledKernelTable()
{
    Profiler prof;
    {
        ProfScope scope(&prof);
        constexpr int kReps = 2000;
        const DataClass kClasses[] = {DataClass::kDeltaInt,
                                      DataClass::kFloat,
                                      DataClass::kRandom};
        // "bpc-xform" shares BpcCompressor (and so the bpc.* phases);
        // profiling the five distinct kernels covers every phase once.
        for (const char *algo : {"bdi", "fpc", "bpc", "cpack", "lz"}) {
            auto codec = makeCompressor(algo);
            Line out;
            for (DataClass cls : kClasses) {
                Line line = lineFor(cls);
                for (int i = 0; i < kReps; ++i) {
                    BitWriter w;
                    codec->compress(line, w);
                    BitReader r(w.bytes().data(), w.bitSize());
                    codec->decompress(r, out);
                }
            }
        }
    }
    ProfSnapshot snap = prof.snapshot();
    std::printf("\nProfiler-sourced kernel costs (src/prof, mixed "
                "delta-int/float/random lines):\n");
    std::printf("%-18s %10s %10s %10s\n", "phase", "calls", "ns/line",
                "MB/s");
    for (const auto &[name, p] : snap.phases) {
        double ns_per_line = p.calls ? double(p.incl_ns) / p.calls : 0;
        double mbps = p.incl_ns
                          ? double(p.calls) * kLineBytes * 1e3 / p.incl_ns
                          : 0;
        std::printf("%-18s %10llu %10.1f %10.1f\n", name.c_str(),
                    (unsigned long long)p.calls, ns_per_line, mbps);
    }
}
#endif // !COMPRESSO_PROF_DISABLED

} // namespace

int
main(int argc, char **argv)
{
    // Our shared flags come out first; google-benchmark gets the rest.
    bench::sink().init(argc, argv, "micro_compressors");
    std::vector<char *> bm_argv = {argv[0]};
    for (const std::string &a : bench::sink().extraArgs())
        bm_argv.push_back(const_cast<char *>(a.c_str()));
    int bm_argc = int(bm_argv.size());

    const std::pair<const char *, DataClass> kCases[] = {
        {"delta-int", DataClass::kDeltaInt},
        {"float", DataClass::kFloat},
        {"random", DataClass::kRandom},
    };
    for (const auto &algo : compressorNames()) {
        for (const auto &[cls_name, cls] : kCases) {
            benchmark::RegisterBenchmark(
                ("compress/" + algo + "/" + cls_name).c_str(),
                [algo, cls = cls](benchmark::State &s) {
                    BM_Compress(s, algo, cls);
                });
            benchmark::RegisterBenchmark(
                ("size/" + algo + "/" + cls_name).c_str(),
                [algo, cls = cls](benchmark::State &s) {
                    BM_Size(s, algo, cls);
                });
            benchmark::RegisterBenchmark(
                ("decompress/" + algo + "/" + cls_name).c_str(),
                [algo, cls = cls](benchmark::State &s) {
                    BM_Decompress(s, algo, cls);
                });
        }
    }
    benchmark::RegisterBenchmark("offset_circuit", BM_OffsetCircuit);
    benchmark::RegisterBenchmark("metadata_codec", BM_MetadataCodec);

    benchmark::Initialize(&bm_argc, bm_argv.data());
    benchmark::RunSpecifiedBenchmarks();

#ifndef COMPRESSO_PROF_DISABLED
    profiledKernelTable();
#else
    std::printf("\n(profiler-sourced kernel table skipped: "
                "COMPRESSO_PROF_DISABLED build)\n");
#endif

    // Hardware-model numbers from Sec. VII-D/E for reference.
    OffsetCircuit oc(compressoBins());
    std::printf("\nOffset circuit model: %u NAND2-equivalent gates, %u "
                "gate delays, %llu extra cycle(s)\n",
                oc.gateCount(), oc.gateDelays(),
                (unsigned long long)oc.extraCycles());
    std::printf("Paper: <1.5K NAND gates, 32-38 gate delays, 1 cycle; "
                "BPC unit 43Kum^2 / ~61K NAND2 @ 40nm.\n");
    return bench::sink().finish();
}
