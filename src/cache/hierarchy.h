/**
 * @file
 * Three-level cache hierarchy: per-core L1D and L2, shared L3
 * (Tab. III). Tags-only; dirty evictions propagate down and L3 victims
 * surface as memory writebacks.
 */

#ifndef COMPRESSO_CACHE_HIERARCHY_H
#define COMPRESSO_CACHE_HIERARCHY_H

#include <array>
#include <cassert>
#include <memory>
#include <vector>

#include "cache/cache.h"

namespace compresso {

struct HierarchyConfig
{
    unsigned cores = 1;
    size_t l1_bytes = 64 * 1024;
    unsigned l1_ways = 8;
    size_t l2_bytes = 512 * 1024;
    unsigned l2_ways = 8;
    /** 2 MB for 1-core, 8 MB shared for 4-core (set by the caller). */
    size_t l3_bytes = 2 * 1024 * 1024;
    unsigned l3_ways = 16;

    Cycle l1_latency = 4;
    Cycle l2_latency = 12;
    Cycle l3_latency = 38;
};

/**
 * The dirty L3 victims of one access, in eviction order. There are at
 * most three: one from the L1 victim's cascade through L2 to L3, one
 * from the L2 fill's victim and one from the L3 fill's victim.
 */
class WritebackList
{
  public:
    void
    push_back(Addr addr)
    {
        assert(size_ < addrs_.size());
        addrs_[size_++] = addr;
    }

    const Addr *begin() const { return addrs_.data(); }
    const Addr *end() const { return addrs_.data() + size_; }
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

  private:
    std::array<Addr, 3> addrs_{};
    size_t size_ = 0;
};

/** What one core access does at the memory boundary. */
struct HierarchyOutcome
{
    unsigned hit_level = 0; ///< 1..3, or 0 => memory fill required
    Cycle hit_latency = 0;  ///< latency to the hitting level
    /** Dirty L3 victims that must be written back to memory; the fill
     *  itself (if hit_level == 0) is the caller's job. */
    WritebackList memory_writebacks;
};

class Hierarchy
{
  public:
    explicit Hierarchy(const HierarchyConfig &cfg);

    /** Access @p addr from @p core. */
    HierarchyOutcome access(unsigned core, Addr addr, bool write);

    Cache &l1(unsigned core) { return *l1_[core]; }
    Cache &l2(unsigned core) { return *l2_[core]; }
    Cache &l3() { return *l3_; }

    const HierarchyConfig &config() const { return cfg_; }

  private:
    HierarchyConfig cfg_;
    std::vector<std::unique_ptr<Cache>> l1_;
    std::vector<std::unique_ptr<Cache>> l2_;
    std::unique_ptr<Cache> l3_;
};

} // namespace compresso

#endif // COMPRESSO_CACHE_HIERARCHY_H
