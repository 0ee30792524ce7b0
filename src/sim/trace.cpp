#include "sim/trace.h"

#include <sstream>
#include <unordered_map>

#include "sim/runner.h"

namespace compresso {

namespace {

bool
parseClass(const std::string &token, DataClass &cls, uint32_t &version)
{
    std::string name = token;
    version = 0;
    auto colon = token.find(':');
    if (colon != std::string::npos) {
        name = token.substr(0, colon);
        version = uint32_t(std::strtoul(token.c_str() + colon + 1,
                                        nullptr, 10));
    }
    for (size_t c = 0; c < kNumDataClasses; ++c) {
        if (name == dataClassName(DataClass(c))) {
            cls = DataClass(c);
            return true;
        }
    }
    return false;
}

} // namespace

bool
TraceReader::next(TraceRecord &rec)
{
    std::string line;
    while (std::getline(in_, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ss(line);
        std::string op, addr_tok;
        if (!(ss >> op >> addr_tok) || (op != "R" && op != "W")) {
            ++skipped_;
            continue;
        }
        char *end = nullptr;
        Addr addr = std::strtoull(addr_tok.c_str(), &end, 16);
        if (end == addr_tok.c_str()) {
            ++skipped_;
            continue;
        }
        rec = TraceRecord{};
        rec.addr = addr;
        rec.write = op == "W";
        std::string tok;
        if (ss >> tok) {
            char *gend = nullptr;
            double gap = std::strtod(tok.c_str(), &gend);
            if (gend != tok.c_str()) {
                rec.inst_gap = gap;
                if (!(ss >> tok))
                    tok.clear();
            }
            if (!tok.empty() &&
                !parseClass(tok, rec.cls, rec.version)) {
                ++skipped_;
                continue;
            }
        }
        ++parsed_;
        return true;
    }
    return false;
}

void
writeTraceRecord(std::ostream &os, const TraceRecord &rec)
{
    os << (rec.write ? "W " : "R ") << std::hex << rec.addr << std::dec
       << ' ' << rec.inst_gap;
    if (rec.write) {
        os << ' ' << dataClassName(rec.cls);
        if (rec.version)
            os << ':' << rec.version;
    }
    os << '\n';
}

TraceReplayReport
replayTrace(McKind kind, TraceReader &reader, uint64_t max_refs)
{
    SystemConfig cfg = makeSystemConfig(kind, 1, RunSpec{});

    std::unique_ptr<MemoryController> mc = makeController(cfg);

    DramModel dram(cfg.dram);
    HierarchyConfig hc = cfg.hierarchy;
    hc.cores = 1;
    Hierarchy hier(hc);
    CoreModel core(cfg.core);

    // Last written (class, version) per line, for victim writebacks.
    std::unordered_map<Addr, std::pair<DataClass, uint32_t>> image;

    auto lineData = [&](Addr a, Line &out) {
        auto it = image.find(lineAddr(a));
        if (it == image.end()) {
            out.fill(0);
            return;
        }
        generateLine(it->second.first,
                     Rng::mix(lineAddr(a), it->second.second),
                     out);
    };

    auto writeback = [&](Addr a) {
        Line data;
        lineData(a, data);
        McTrace tr;
        mc->writebackLine(a, data, tr);
        for (const DramOp &op : tr.ops)
            dram.access(op.addr, op.write, core.now());
        if (tr.stall_cycles > 0)
            core.stall(tr.stall_cycles);
    };

    TraceReplayReport rep;
    TraceRecord rec;
    while (reader.next(rec)) {
        ++rep.references;
        rep.reads += !rec.write;
        rep.writes += rec.write;
        core.advanceInsts(rec.inst_gap);

        if (rec.write)
            image[lineAddr(rec.addr)] = {rec.cls, rec.version};

        HierarchyOutcome out = hier.access(0, rec.addr, rec.write);
        for (Addr wb : out.memory_writebacks)
            writeback(wb);

        if (out.hit_level != 0) {
            if (rec.write)
                core.store();
            else
                core.load(core.now() + out.hit_latency);
        } else {
            Line data;
            McTrace tr;
            mc->fillLine(rec.addr, data, tr);
            Cycle t = core.now() + out.hit_latency;
            Cycle done = t;
            Cycle chain = t;
            for (const DramOp &op : tr.ops) {
                if (!op.critical) {
                    dram.access(op.addr, op.write, t);
                    continue;
                }
                Cycle c = dram.access(op.addr, op.write,
                                      tr.speculative_parallel ? t
                                                              : chain);
                if (op.addr >= (Addr(1) << 40))
                    chain = c;
                done = std::max(done, c);
            }
            done += tr.fixed_latency;
            if (rec.write)
                core.store();
            else
                core.load(done);
        }

        if (max_refs && rep.references >= max_refs)
            break;
    }
    core.drainAll();

    // Final flush: push every written line to memory so the reported
    // compression ratio covers the whole trace image (cache-resident
    // data would otherwise never reach the controller).
    for (const auto &[addr, state] : image) {
        Line data;
        generateLine(state.first, Rng::mix(addr, state.second), data);
        McTrace tr;
        mc->writebackLine(addr, data, tr);
    }
    mc->flush();

    rep.cycles = core.now();
    rep.ipc = rep.cycles
                  ? double(core.instsRetired()) / double(rep.cycles)
                  : 0;
    rep.comp_ratio = mc->compressionRatio();
    rep.mc_stats = mc->stats();
    rep.dram_stats = dram.stats();
    return rep;
}

} // namespace compresso
