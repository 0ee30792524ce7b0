/**
 * @file
 * Set-associative write-back cache model (tags only; functional data
 * lives in the workload's memory image and the compressed store).
 *
 * Geometry per Tab. III: 64 KB L1D, 512 KB L2, 2 MB (1-core) or 8 MB
 * shared (4-core) L3, all with 64 B lines, LRU replacement,
 * write-allocate.
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
    struct Way
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        uint64_t lru = 0;
    };

    size_t setOf(Addr line) const { return (line / kLineBytes) % sets_; }

    size_t sets_;
    unsigned ways_;
    std::vector<Way> array_;
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
