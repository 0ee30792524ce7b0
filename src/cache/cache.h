/**
 * @file
 * Set-associative write-back cache model (tags only; functional data
 * lives in the workload's memory image and the compressed store).
 *
 * Geometry per Tab. III: 64 KB L1D, 512 KB L2, 2 MB (1-core) or 8 MB
 * shared (4-core) L3, all with 64 B lines, LRU replacement,
 * write-allocate. The set count must be a power of two.
 */

#ifndef COMPRESSO_CACHE_CACHE_H
#define COMPRESSO_CACHE_CACHE_H

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace compresso {

struct CacheConfig
{
    size_t size_bytes;
    unsigned ways;
    const char *name;
};

/** Outcome of a single cache access. */
struct CacheResult
{
    bool hit = false;
    bool writeback = false; ///< a dirty victim was evicted
    Addr victim_addr = 0;   ///< line address of the dirty victim
};

class Cache
{
  public:
    /** Aborts unless @p cfg holds a power-of-two number of sets of
     *  cfg.ways 64 B lines exactly. */
    explicit Cache(const CacheConfig &cfg);

    /**
     * Access line @p addr (line-aligned or not; it is aligned
     * internally). Allocates on miss.
     */
    CacheResult access(Addr addr, bool write);

    /** Probe without updating state. */
    bool contains(Addr addr) const;

    /** Invalidate a line; returns true (and sets @p was_dirty) if it
     *  was present. */
    bool invalidate(Addr addr, bool &was_dirty);

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

  private:
    /** Tag-word flags; a line address has its low six bits clear. */
    static constexpr Addr kValid = 1;
    static constexpr Addr kDirty = 2;

    size_t setOf(Addr line) const { return (line / kLineBytes) & set_mask_; }

    /** Way of @p tags holding @p line, or ways_ if none does. */
    unsigned find(const Addr *tags, Addr line) const;

    size_t set_mask_; ///< sets - 1
    unsigned ways_;
    /// Per way, set-major: line | kValid | kDirty, 0 when invalid.
    std::vector<Addr> tags_;
    /// Per way: tick of its last access, 0 when invalid. Valid stamps are
    /// unique and >= 1: a set's first minimum is its first invalid way.
    std::vector<uint64_t> stamps_;
    uint64_t tick_ = 0;
    StatGroup stats_;
    // Cached hot-path counter handles (stable across reset()).
    uint64_t &st_accesses_ = stats_.stat("accesses");
    uint64_t &st_hits_ = stats_.stat("hits");
    uint64_t &st_misses_ = stats_.stat("misses");
    uint64_t &st_writebacks_ = stats_.stat("writebacks");
};

} // namespace compresso

#endif // COMPRESSO_CACHE_CACHE_H
