#include "cache/hierarchy.h"

#include "prof/profiler.h"

namespace compresso {

Hierarchy::Hierarchy(const HierarchyConfig &cfg) : cfg_(cfg)
{
    for (unsigned c = 0; c < cfg.cores; ++c) {
        l1_.push_back(std::make_unique<Cache>(
            CacheConfig{cfg.l1_bytes, cfg.l1_ways, "l1"}));
        l2_.push_back(std::make_unique<Cache>(
            CacheConfig{cfg.l2_bytes, cfg.l2_ways, "l2"}));
    }
    l3_ = std::make_unique<Cache>(
        CacheConfig{cfg.l3_bytes, cfg.l3_ways, "l3"});
}

HierarchyOutcome
Hierarchy::access(unsigned core, Addr addr, bool write)
{
    CPR_PROF_SCOPE(ProfPhase::kCacheHierarchy);
    HierarchyOutcome out;

    // L1.
    CacheResult r1 = l1_[core]->access(addr, write);
    // A dirty L1 victim is absorbed by L2 (possibly cascading).
    auto spillToL2 = [&](Addr victim) {
        CacheResult r = l2_[core]->access(victim, true);
        if (r.writeback) {
            CacheResult r3 = l3_->access(r.victim_addr, true);
            if (r3.writeback)
                out.memory_writebacks.push_back(r3.victim_addr);
        }
    };
    auto spillToL3 = [&](Addr victim) {
        CacheResult r = l3_->access(victim, true);
        if (r.writeback)
            out.memory_writebacks.push_back(r.victim_addr);
    };

    if (r1.writeback)
        spillToL2(r1.victim_addr);
    if (r1.hit) {
        out.hit_level = 1;
        out.hit_latency = cfg_.l1_latency;
        return out;
    }

    // L2.
    CacheResult r2 = l2_[core]->access(addr, false);
    if (r2.writeback)
        spillToL3(r2.victim_addr);
    if (r2.hit) {
        out.hit_level = 2;
        out.hit_latency = cfg_.l2_latency;
        return out;
    }

    // L3.
    CacheResult r3 = l3_->access(addr, false);
    if (r3.writeback)
        out.memory_writebacks.push_back(r3.victim_addr);
    if (r3.hit) {
        out.hit_level = 3;
        out.hit_latency = cfg_.l3_latency;
        return out;
    }

    out.hit_level = 0;
    out.hit_latency = cfg_.l3_latency;
    return out;
}

} // namespace compresso
