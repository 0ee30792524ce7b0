#include "cache/cache.h"

#include <bit>
#include <cstdio>
#include <cstdlib>

namespace compresso {

Cache::Cache(const CacheConfig &cfg)
    : ways_(cfg.ways), stats_(cfg.name)
{
    size_t set_bytes = size_t(cfg.ways) * kLineBytes;
    size_t sets = set_bytes == 0 ? 0 : cfg.size_bytes / set_bytes;
    if (!std::has_single_bit(sets) || sets * set_bytes != cfg.size_bytes) {
        std::fprintf(stderr,
                     "Cache %s: %zu B in %u ways is not a power-of-two "
                     "number of sets of 64 B lines\n",
                     cfg.name, cfg.size_bytes, cfg.ways);
        std::abort();
    }
    set_mask_ = sets - 1;
    tags_.assign(sets * ways_, 0);
    stamps_.assign(sets * ways_, 0);
}

unsigned
Cache::find(const Addr *tags, Addr line) const
{
    // At most one way matches, so scan them all without an early exit.
    Addr want = line | kValid;
    unsigned hit = ways_;
    for (unsigned w = 0; w < ways_; ++w)
        hit = (tags[w] & ~kDirty) == want ? w : hit;
    return hit;
}

CacheResult
Cache::access(Addr addr, bool write)
{
    Addr line = lineAddr(addr);
    size_t base = setOf(line) * ways_;
    Addr *tags = &tags_[base];
    uint64_t *stamps = &stamps_[base];
    ++tick_;
    ++st_accesses_;

    unsigned hit = find(tags, line);
    if (hit != ways_) {
        ++st_hits_;
        stamps[hit] = tick_;
        tags[hit] |= write ? kDirty : 0;
        return CacheResult{true, false, 0};
    }

    ++st_misses_;

    // Victim: the first minimum stamp (first invalid way, else LRU).
    unsigned victim = 0;
    uint64_t oldest = stamps[0];
    for (unsigned w = 1; w < ways_; ++w) {
        bool older = stamps[w] < oldest;
        victim = older ? w : victim;
        oldest = older ? stamps[w] : oldest;
    }

    CacheResult res;
    if (tags[victim] & kDirty) {
        res.writeback = true;
        res.victim_addr = tags[victim] & ~(kValid | kDirty);
        ++st_writebacks_;
    }
    tags[victim] = line | kValid | (write ? kDirty : 0);
    stamps[victim] = tick_;
    return res;
}

bool
Cache::contains(Addr addr) const
{
    Addr line = lineAddr(addr);
    return find(&tags_[setOf(line) * ways_], line) != ways_;
}

bool
Cache::invalidate(Addr addr, bool &was_dirty)
{
    Addr line = lineAddr(addr);
    size_t base = setOf(line) * ways_;
    unsigned w = find(&tags_[base], line);
    was_dirty = w != ways_ && (tags_[base + w] & kDirty) != 0;
    if (w == ways_)
        return false;
    tags_[base + w] = 0;
    stamps_[base + w] = 0;
    return true;
}

} // namespace compresso
