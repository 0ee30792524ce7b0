#include "cache/cache.h"

namespace compresso {

Cache::Cache(const CacheConfig &cfg)
    : ways_(cfg.ways), stats_(cfg.name)
{
    size_t lines = cfg.size_bytes / kLineBytes;
    sets_ = lines / cfg.ways;
    array_.resize(sets_ * ways_);
}

CacheResult
Cache::access(Addr addr, bool write)
{
    Addr line = lineAddr(addr);
    size_t set = setOf(line);
    Way *base = &array_[set * ways_];
    ++tick_;
    ++st_accesses_;

    for (unsigned w = 0; w < ways_; ++w) {
        Way &way = base[w];
        if (way.valid && way.tag == line) {
            ++st_hits_;
            way.lru = tick_;
            way.dirty |= write;
            return CacheResult{true, false, 0};
        }
    }

    ++st_misses_;

    // Victim: invalid way if any, else LRU.
    Way *victim = base;
    for (unsigned w = 0; w < ways_; ++w) {
        Way &way = base[w];
        if (!way.valid) {
            victim = &way;
            break;
        }
        if (way.lru < victim->lru)
            victim = &way;
    }

    CacheResult res;
    if (victim->valid && victim->dirty) {
        res.writeback = true;
        res.victim_addr = victim->tag;
        ++st_writebacks_;
    }
    victim->valid = true;
    victim->tag = line;
    victim->dirty = write;
    victim->lru = tick_;
    return res;
}

bool
Cache::contains(Addr addr) const
{
    Addr line = lineAddr(addr);
    const Way *base = &array_[setOf(line) * ways_];
    for (unsigned w = 0; w < ways_; ++w)
        if (base[w].valid && base[w].tag == line)
            return true;
    return false;
}

bool
Cache::invalidate(Addr addr, bool &was_dirty)
{
    Addr line = lineAddr(addr);
    Way *base = &array_[setOf(line) * ways_];
    for (unsigned w = 0; w < ways_; ++w) {
        Way &way = base[w];
        if (way.valid && way.tag == line) {
            was_dirty = way.dirty;
            way.valid = false;
            way.dirty = false;
            return true;
        }
    }
    was_dirty = false;
    return false;
}

} // namespace compresso
