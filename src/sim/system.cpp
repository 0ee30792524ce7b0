#include "sim/system.h"

#include <algorithm>
#include <cassert>

#include "prof/profiler.h"

namespace compresso {

namespace {

/** Metadata-region ops live above the data-chunk arena. */
bool
isMetadataOp(const DramOp &op)
{
    return op.addr >= (Addr(1) << 40);
}

} // namespace

const char *
mcKindName(McKind kind)
{
    switch (kind) {
      case McKind::kUncompressed: return "uncompressed";
      case McKind::kLcp: return "lcp";
      case McKind::kLcpAlign: return "lcp+align";
      case McKind::kRmc: return "rmc";
      case McKind::kCompresso: return "compresso";
    }
    return "?";
}

std::unique_ptr<MemoryController>
makeController(const SystemConfig &cfg)
{
    switch (cfg.kind) {
      case McKind::kUncompressed:
        return std::make_unique<UncompressedController>();
      case McKind::kLcp:
      case McKind::kLcpAlign:
        return std::make_unique<LcpController>(LcpConfig{
            .alignment_friendly = cfg.kind == McKind::kLcpAlign});
      case McKind::kRmc:
        return std::make_unique<RmcController>(RmcConfig{});
      case McKind::kCompresso:
        return std::make_unique<CompressoController>(cfg.compresso);
    }
    return nullptr;
}

System::System(const SystemConfig &cfg,
               const std::vector<std::string> &workloads, uint64_t seed)
    : cfg_(cfg), dram_(cfg.dram), hier_([&] {
          HierarchyConfig h = cfg.hierarchy;
          h.cores = cfg.cores;
          return h;
      }())
{
    assert(workloads.size() == cfg.cores);

    mc_ = makeController(cfg);

    if (cfg.fault.rates_enabled()) {
        fault_ = std::make_unique<FaultInjector>(cfg.fault);
        mc_->attachFaultInjector(fault_.get());
        dram_.attachFaultInjector(fault_.get());
    }

    if (cfg.obs.enabled) {
        obs_ = std::make_unique<Observer>(cfg.obs);
        mc_->attachObserver(obs_.get());
        dram_.attachObserver(obs_.get());
        obs_->sampler().registerGroup(&mc_->stats());
        obs_->sampler().registerGroup(&dram_.stats());
        obs_->sampler().registerGroup(&hier_.l3().stats());
        if (MetadataCache *mdc = mc_->metadataCache())
            obs_->sampler().registerGroup(&mdc->stats());
        attrib_ = obs_->attrib();
    }

    cores_.assign(cfg.cores, CoreModel(cfg.core));
    miss_table_.assign(cfg.cores, {});
    for (auto &t : miss_table_)
        t.fill(~Addr(0));
    miss_table_pos_.assign(cfg.cores, 0);

    // Each core's workload instance occupies a disjoint OSPA range.
    PageNum base = 0;
    for (unsigned c = 0; c < cfg.cores; ++c) {
        const WorkloadProfile &prof = profileByName(workloads[c]);
        streams_.push_back(std::make_unique<AccessStream>(
            prof, Rng::mix(seed, c + 1), base));
        base += prof.pages + 16; // guard gap between instances
    }
}

AccessStream *
System::streamOwning(Addr addr)
{
    for (auto &s : streams_) {
        if (addr >= s->baseAddr() && addr < s->endAddr())
            return s.get();
    }
    return nullptr;
}

void
System::populate()
{
    CPR_PROF_SCOPE(ProfPhase::kSimPopulate);
    for (auto &s : streams_) {
        Line data;
        for (Addr a = s->baseAddr(); a < s->endAddr(); a += kLineBytes) {
            s->initialLineData(a, data);
            McTrace scratch;
            mc_->writebackLine(a, data, scratch);
        }
    }
    resetStats();
}

void
System::resetStats()
{
    mc_->stats().reset();
    dram_.stats().reset();
    hier_.l3().stats().reset();
    for (unsigned c = 0; c < cfg_.cores; ++c) {
        hier_.l1(c).stats().reset();
        hier_.l2(c).stats().reset();
    }
    if (MetadataCache *mdc = mc_->metadataCache())
        mdc->stats().reset();
    if (obs_)
        obs_->sampler().restart();
    if (attrib_ != nullptr)
        attrib_->reset();
}

void
System::noteBackgroundFixed(const McTrace &tr, bool include_stall)
{
    if (attrib_ == nullptr)
        return;
    for (size_t c = 0; c < kAttribComps; ++c) {
        if (tr.fixed_by_comp[c] > 0)
            attrib_->background(AttribComp(c), tr.fixed_by_comp[c]);
    }
    if (include_stall && tr.stall_cycles > 0)
        attrib_->background(tr.stall_comp, tr.stall_cycles);
}

Cycle
System::serviceFill(unsigned /*core*/, Addr addr, Cycle now)
{
    Line data;
    McTrace tr;
    mc_->fillLine(addr, data, tr);

    Cycle done = now;
    Cycle chain = now;
    bool spec = tr.speculative_parallel;
    unsigned spec_budget = 2; // metadata + slot issue together
    AttribVec comp{};
    for (const DramOp &op : tr.ops) {
        if (!op.critical) {
            Cycle t = dram_.access(op.addr, op.write, now);
            if (attrib_ != nullptr)
                attrib_->background(op.comp, t - now);
            continue;
        }
        Cycle before = done;
        if (spec && spec_budget > 0) {
            // OS-aware LCP: the slot access issues in parallel with
            // the metadata access (the TLB knows the target size); an
            // exception access must serialize behind both.
            --spec_budget;
            Cycle t = dram_.access(op.addr, op.write, now);
            done = std::max(done, t);
        } else if (spec) {
            Cycle t = dram_.access(op.addr, op.write, done);
            done = std::max(done, t);
        } else {
            // Metadata first, then the (possibly multiple) data blocks
            // issue in parallel with each other.
            Cycle t = dram_.access(op.addr, op.write, chain);
            if (isMetadataOp(op))
                chain = t;
            done = std::max(done, t);
        }
        // Critical-path share of this op: the deltas telescope to
        // exactly done - now, the §15 conservation invariant.
        if (attrib_ != nullptr)
            comp[size_t(op.comp)] += done - before;
    }
    if (attrib_ != nullptr) {
        for (size_t c = 0; c < kAttribComps; ++c)
            comp[c] += tr.fixed_by_comp[c];
        // Fill-side stalls are not applied to the core by the timing
        // model (only writebacks stall); keep them off the critical
        // decomposition but visible as background cost.
        if (tr.stall_cycles > 0)
            attrib_->background(tr.stall_comp, tr.stall_cycles);
        attrib_->record(addr, (done - now) + tr.fixed_latency, comp);
    }
    return done + tr.fixed_latency;
}

void
System::serviceWriteback(unsigned core, Addr addr)
{
    AccessStream *owner = streamOwning(addr);
    if (!owner)
        return; // spilled guard-gap line; cannot happen in practice
    Line data;
    owner->lineData(addr, data);
    McTrace tr;
    mc_->writebackLine(addr, data, tr);
    Cycle now = cores_[core].now();
    for (const DramOp &op : tr.ops) {
        Cycle t = dram_.access(op.addr, op.write, now);
        if (attrib_ != nullptr)
            attrib_->background(op.comp, t - now);
    }
    // Writeback fixed latency never reaches the core; only the stall
    // does, and it is recorded as its own attributed reference.
    noteBackgroundFixed(tr, /*include_stall=*/false);
    if (tr.stall_cycles > 0) {
        cores_[core].stall(tr.stall_cycles);
        if (attrib_ != nullptr) {
            AttribVec comp{};
            comp[size_t(tr.stall_comp)] = tr.stall_cycles;
            attrib_->record(addr, tr.stall_cycles, comp);
        }
    }
}

void
System::step(unsigned core)
{
    CoreModel &cm = cores_[core];
    MemRef ref = streams_[core]->next();
    cm.advanceInsts(ref.inst_gap);

    HierarchyOutcome out = hier_.access(core, ref.addr, ref.write);
    for (Addr wb : out.memory_writebacks)
        serviceWriteback(core, wb);

    if (out.hit_level != 0) {
        if (ref.write)
            cm.store();
        else
            cm.load(cm.now() + out.hit_latency);
        return;
    }

    Cycle done = serviceFill(core, ref.addr, cm.now() + out.hit_latency);
    if (ref.write)
        cm.store(); // fill overlaps via the store buffer
    else
        cm.load(done);

    // Stride-1 stream detected: prefetch the next line into the LLC.
    Addr line = lineAddr(ref.addr);
    if (cfg_.next_line_prefetch) {
        for (Addr prev : miss_table_[core]) {
            if (line == prev + kLineBytes) {
                prefetchLine(core, line + kLineBytes);
                break;
            }
        }
    }
    auto &table = miss_table_[core];
    table[miss_table_pos_[core]] = line;
    miss_table_pos_[core] = (miss_table_pos_[core] + 1) % table.size();
}

void
System::observeRef(unsigned core)
{
    obs_->setNow(cores_[core].now());
    obs_->onRef();
}

void
System::prefetchLine(unsigned core, Addr addr)
{
    if (hier_.l3().contains(addr) || !streamOwning(addr))
        return;
    Line data;
    McTrace tr;
    mc_->fillLine(addr, data, tr);
    Cycle now = cores_[core].now();
    for (const DramOp &op : tr.ops) {
        Cycle t = dram_.access(op.addr, op.write, now); // bandwidth only
        if (attrib_ != nullptr)
            attrib_->background(op.comp, t - now);
    }
    noteBackgroundFixed(tr, /*include_stall=*/true);
    CacheResult cr = hier_.l3().access(addr, false);
    if (cr.writeback)
        serviceWriteback(core, cr.victim_addr);
}

void
System::run(uint64_t refs_per_core)
{
    CPR_PROF_SCOPE(ProfPhase::kSimRun);
    std::vector<uint64_t> issued(cfg_.cores, 0);
    bool remaining = true;
    while (remaining) {
        // Advance the core that is furthest behind in time so the
        // cores stay under mutual contention (zsim-style interleave).
        remaining = false;
        unsigned pick = 0;
        Cycle best = ~Cycle(0);
        for (unsigned c = 0; c < cfg_.cores; ++c) {
            if (issued[c] >= refs_per_core)
                continue;
            remaining = true;
            if (cores_[c].now() < best) {
                best = cores_[c].now();
                pick = c;
            }
        }
        if (!remaining)
            break;
        step(pick);
        ++issued[pick];
        if (obs_)
            observeRef(pick);
    }
    for (auto &cm : cores_)
        cm.drainAll();
}

Cycle
System::cycles() const
{
    Cycle worst = 0;
    for (const auto &cm : cores_)
        worst = std::max(worst, cm.now());
    return worst;
}

uint64_t
System::instsRetired() const
{
    uint64_t total = 0;
    for (const auto &cm : cores_)
        total += cm.instsRetired();
    return total;
}

} // namespace compresso
