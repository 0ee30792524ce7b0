/**
 * @file
 * Golden lock and differential checks for the per-reference timing
 * layers: AccessStream, Hierarchy/Cache, MetadataCache and DramModel.
 *
 * TimingGolden drives AccessStream -> Hierarchy -> MetadataCache ->
 * DramModel for mcf, omnetpp and zeusmp, 50k references each, in
 * System::step / serviceFill order, with metadata-cache reshapes,
 * invalidations and predictor-counter updates mixed in. Per profile it
 * pins FNV-1a digests of:
 *
 *  - every outcome: hit level and latency, each memory writeback, each
 *    metadata-cache hit and predictor counter, each DRAM done cycle,
 *    and the evict-hook calls in order;
 *  - the counters of every layer (caches by their four named keys, so
 *    a key that now exists from construction with value 0 does not
 *    move the digest);
 *  - lineData() of every line the stream wrote;
 *  - lineData() of addresses outside the stream's footprint that would
 *    alias a written line under a truncated or wrapped key.
 *
 * The constants were recorded from the layers as they stood before
 * their counters moved to cached handles, the metadata cache's sets to
 * flat slot arrays and the stream's line states to a probe table.
 *
 * The same chain also feeds a CoreModel in System::step order: every
 * load completes at its hit latency plus, on a miss, the metadata and
 * DRAM fill time the chain computed. TimingGolden.CoreModel pins
 * now() and instsRetired() after every reference and after drainAll(),
 * recorded from the deque-based model that CoreModelDifferential keeps
 * as its reference.
 *
 * CacheDifferential, MetadataCacheDifferential and
 * CoreModelDifferential run seeded random operation sequences against
 * reference copies of those earlier implementations, kept below, and
 * compare every return value, counter and evict-hook call.
 */

#include <gtest/gtest.h>

#include <deque>
#include <list>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cache/hierarchy.h"
#include "common/rng.h"
#include "dram/dram_model.h"
#include "meta/metadata_cache.h"
#include "sim/core_model.h"
#include "workloads/access_stream.h"
#include "workloads/profiles.h"

using namespace compresso;

namespace {

class Fnv
{
  public:
    void
    add(uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ULL;
        }
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

// ---------------------------------------------------------------------
// Golden run
// ---------------------------------------------------------------------

constexpr uint64_t kRefs = 50000;
/** Metadata entries sit above any data address a stream generates. */
constexpr Addr kMetadataBase = Addr(1) << 40;

struct Digests
{
    uint64_t outcomes;
    uint64_t counters;
    uint64_t lines;
    uint64_t probes;
    uint64_t core;
};

void
addCacheCounters(Fnv &f, const StatGroup &g)
{
    for (const char *key : {"accesses", "hits", "misses", "writebacks"})
        f.add(g.get(key));
}

void
addLine(Fnv &f, const Line &line)
{
    for (uint8_t b : line)
        f.add(b);
}

Digests
driveProfile(const char *name, PageNum base_page, uint64_t seed,
             size_t &written_lines)
{
    AccessStream stream(profileByName(name), seed, base_page);
    Hierarchy hier{HierarchyConfig{}};
    MetadataCache mdc{MetadataCacheConfig{}};
    DramModel dram{DramConfig{}};
    CoreModel core{CoreConfig{}};

    Fnv out;
    mdc.setEvictHook([&](PageNum page, bool dirty) {
        out.add(page);
        out.add(dirty ? 1 : 0);
    });

    Cycle now = 0;
    // Uncompressed pages need only the first metadata half.
    auto halfPage = [](PageNum page) {
        return (Rng::mix(page, 0x4a1f) & 3) == 0;
    };
    auto metadataStep = [&](Addr addr, bool dirty) {
        PageNum page = pageOf(addr);
        bool hit = mdc.access(page, halfPage(page), dirty);
        out.add(hit ? 1 : 0);
        if (dirty) {
            uint8_t *ctr = mdc.predictorCounter(page);
            out.add(ctr == nullptr ? 0xff : *ctr);
            if (ctr != nullptr && *ctr < 3)
                ++*ctr;
        }
        if (hit)
            return now;
        Cycle t = dram.access(kMetadataBase + page * kMetadataEntryBytes,
                              false, now);
        out.add(t);
        return t;
    };

    std::set<Addr> written;
    Fnv core_out;
    for (uint64_t i = 0; i < kRefs; ++i) {
        MemRef ref = stream.next();
        now += 1 + Cycle(ref.inst_gap);
        if (ref.write)
            written.insert(lineAddr(ref.addr));
        core.advanceInsts(ref.inst_gap);

        HierarchyOutcome ho = hier.access(0, ref.addr, ref.write);
        out.add(ho.hit_level);
        out.add(ho.hit_latency);
        out.add(ho.memory_writebacks.size());
        for (Addr wb : ho.memory_writebacks) {
            out.add(wb);
            metadataStep(wb, true);
            out.add(dram.access(wb, true, now));
        }
        Cycle fill = 0;
        if (ho.hit_level == 0) {
            Cycle at = metadataStep(ref.addr, false);
            Cycle done = dram.access(ref.addr, false, at);
            out.add(done);
            fill = done - now;
            now = std::max(now, done - ho.hit_latency);
        }
        if (ref.write)
            core.store();
        else
            core.load(core.now() + ho.hit_latency + fill);
        core_out.add(core.now());
        core_out.add(core.instsRetired());

        PageNum page = pageOf(ref.addr);
        if (i % 97 == 0)
            mdc.reshape(page, (i / 97) % 2 == 0);
        if (i % 131 == 0)
            mdc.invalidate(page + 1);
    }
    out.add(stream.refsGenerated());
    core.drainAll();
    core_out.add(core.now());
    core_out.add(core.instsRetired());

    Fnv counters;
    addCacheCounters(counters, hier.l1(0).stats());
    addCacheCounters(counters, hier.l2(0).stats());
    addCacheCounters(counters, hier.l3().stats());
    for (const StatGroup *g : {&mdc.stats(), &dram.stats()}) {
        for (const auto &[key, value] : g->counters()) {
            for (char c : key)
                counters.add(uint8_t(c));
            counters.add(value);
        }
    }

    Fnv lines;
    Line data;
    for (Addr a : written) {
        lines.add(a);
        stream.lineData(a, data);
        addLine(lines, data);
    }

    // Addresses outside [baseAddr(), endAddr()) read as never mutated:
    // one footprint either side of a written line, 2^32 lines away
    // (a truncated 32-bit line key), and the lines bordering the range.
    Fnv probes;
    Addr footprint = stream.endAddr() - stream.baseAddr();
    std::vector<Addr> probe_addrs = {stream.endAddr(),
                                     stream.endAddr() + kLineBytes};
    if (stream.baseAddr() > 0)
        probe_addrs.push_back(stream.baseAddr() - kLineBytes);
    size_t n = 0;
    for (Addr a : written) {
        if (++n > 64)
            break;
        probe_addrs.push_back(a + footprint);
        probe_addrs.push_back(a + (Addr(kLineBytes) << 32));
        if (a >= stream.baseAddr() + footprint)
            probe_addrs.push_back(a - footprint);
        if (stream.baseAddr() > 0)
            probe_addrs.push_back(a - stream.baseAddr());
    }
    for (Addr a : probe_addrs) {
        probes.add(a);
        stream.lineData(a, data);
        addLine(probes, data);
    }

    written_lines = written.size();
    return Digests{out.value(), counters.value(), lines.value(),
                   probes.value(), core_out.value()};
}

struct GoldenCase
{
    const char *profile;
    PageNum base_page;
    Digests want;
};

constexpr GoldenCase kGolden[] = {
    {"mcf",
     0,
     {0x055c48c265103cbdULL, 0xd43c6280554de2edULL, 0xea4556be833c41c9ULL,
      0xa02b57b3347fd984ULL, 0x567f34b3f0bb1d49ULL}},
    {"omnetpp",
     8208,
     {0xb6ad67a6239fb526ULL, 0x1ef3121819048032ULL, 0xcb0a4dee4863a12aULL,
      0xe8a49e68c36be544ULL, 0x96279a57a582edc3ULL}},
    {"zeusmp",
     40000,
     {0x2955145d717b2d74ULL, 0xd95018986ac464f6ULL, 0x3e6ad765aaa94f8fULL,
      0xc1d1cf1eb22c0bd6ULL, 0x7d20971c343c6564ULL}},
};

Digests
driveGolden(size_t i, size_t &written_lines)
{
    return driveProfile(kGolden[i].profile, kGolden[i].base_page,
                        Rng::mix(20240613, i + 1), written_lines);
}

std::string
hex(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx", (unsigned long long)v);
    return std::string(buf);
}

TEST(TimingGolden, StreamHierarchyMetadataCacheDram)
{
    size_t max_written = 0;
    for (size_t i = 0; i < std::size(kGolden); ++i) {
        const GoldenCase &c = kGolden[i];
        size_t written = 0;
        Digests got = driveGolden(i, written);
        max_written = std::max(max_written, written);
        EXPECT_EQ(got.outcomes, c.want.outcomes)
            << c.profile << " outcomes " << hex(got.outcomes);
        EXPECT_EQ(got.counters, c.want.counters)
            << c.profile << " counters " << hex(got.counters);
        EXPECT_EQ(got.lines, c.want.lines)
            << c.profile << " lines " << hex(got.lines);
        EXPECT_EQ(got.probes, c.want.probes)
            << c.profile << " probes " << hex(got.probes);
    }
    // The stream's line-state table starts at 1,024 slots and doubles
    // at 3/4 load; more than 3,072 written lines means it grew at
    // least three times in one profile.
    EXPECT_GT(max_written, 3072u);
}

TEST(TimingGolden, CoreModel)
{
    for (size_t i = 0; i < std::size(kGolden); ++i) {
        size_t written = 0;
        Digests got = driveGolden(i, written);
        EXPECT_EQ(got.core, kGolden[i].want.core)
            << kGolden[i].profile << " core " << hex(got.core);
    }
}

// ---------------------------------------------------------------------
// Reference implementations: Cache and MetadataCache as they stood
// before their hot paths moved to cached handles and flat slot arrays,
// and CoreModel as it stood before its window moved to a fixed ring.
// ---------------------------------------------------------------------

namespace reference {

class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg) : ways_(cfg.ways)
    {
        size_t lines = cfg.size_bytes / kLineBytes;
        sets_ = lines / cfg.ways;
        array_.resize(sets_ * ways_);
    }

    CacheResult
    access(Addr addr, bool write)
    {
        Addr line = lineAddr(addr);
        Way *base = &array_[setOf(line) * ways_];
        ++tick_;
        ++stats_["accesses"];
        for (unsigned w = 0; w < ways_; ++w) {
            Way &way = base[w];
            if (way.valid && way.tag == line) {
                ++stats_["hits"];
                way.lru = tick_;
                way.dirty |= write;
                return CacheResult{true, false, 0};
            }
        }
        ++stats_["misses"];
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
            ++stats_["writebacks"];
        }
        victim->valid = true;
        victim->tag = line;
        victim->dirty = write;
        victim->lru = tick_;
        return res;
    }

    bool
    contains(Addr addr) const
    {
        Addr line = lineAddr(addr);
        const Way *base = &array_[setOf(line) * ways_];
        for (unsigned w = 0; w < ways_; ++w)
            if (base[w].valid && base[w].tag == line)
                return true;
        return false;
    }

    bool
    invalidate(Addr addr, bool &was_dirty)
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

    StatGroup &stats() { return stats_; }

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
};

class MetadataCache
{
  public:
    explicit MetadataCache(const MetadataCacheConfig &cfg) : cfg_(cfg)
    {
        sets_.resize(cfg.size_bytes / kMetadataEntryBytes / cfg.ways);
    }

    bool
    access(PageNum page, bool half, bool dirty)
    {
        if (!cfg_.half_entry_opt)
            half = false;
        auto &set = setFor(page);
        ++st_accesses_;
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->page == page) {
                ++st_hits_;
                Entry e = *it;
                if (!half)
                    e.half = false;
                e.dirty |= dirty;
                set.erase(it);
                set.push_front(e);
                return true;
            }
        }
        ++st_misses_;
        set.push_front(Entry{page, half, dirty, 0});
        evictOverflow(set);
        return false;
    }

    bool
    contains(PageNum page)
    {
        for (const auto &e : setFor(page))
            if (e.page == page)
                return true;
        return false;
    }

    void
    invalidate(PageNum page)
    {
        auto &set = setFor(page);
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->page == page) {
                set.erase(it);
                return;
            }
        }
    }

    void
    reshape(PageNum page, bool half)
    {
        if (!cfg_.half_entry_opt)
            half = false;
        auto &set = setFor(page);
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->page == page) {
                Entry e = *it;
                e.half = half;
                set.erase(it);
                set.push_front(e);
                break;
            }
        }
        evictOverflow(set);
    }

    uint8_t *
    predictorCounter(PageNum page)
    {
        for (auto &e : setFor(page))
            if (e.page == page)
                return &e.ovf_counter;
        return nullptr;
    }

    std::vector<std::pair<PageNum, bool>> evicted;
    StatGroup stats_{"mdcache"};
    uint64_t &st_accesses_ = stats_.stat("accesses");
    uint64_t &st_hits_ = stats_.stat("hits");
    uint64_t &st_misses_ = stats_.stat("misses");
    uint64_t &st_evictions_ = stats_.stat("evictions");

  private:
    struct Entry
    {
        PageNum page;
        bool half;
        bool dirty = false;
        uint8_t ovf_counter = 0;
    };

    std::list<Entry> &setFor(PageNum page)
    {
        return sets_[page % sets_.size()];
    }

    void
    evictOverflow(std::list<Entry> &set)
    {
        auto weight = [&] {
            double w = 0;
            for (const auto &e : set)
                w += e.half ? 0.5 : 1.0;
            return w;
        };
        while (weight() > double(cfg_.ways)) {
            Entry victim = set.back();
            set.pop_back();
            ++st_evictions_;
            evicted.emplace_back(victim.page, victim.dirty);
        }
    }

    MetadataCacheConfig cfg_;
    std::vector<std::list<Entry>> sets_;
};

class CoreModel
{
  public:
    explicit CoreModel(const CoreConfig &cfg) : cfg_(cfg) {}

    Cycle now() const { return Cycle(cycle_); }
    uint64_t instsRetired() const { return uint64_t(insts_); }

    void
    advanceInsts(double n)
    {
        insts_ += n;
        cycle_ += n / cfg_.issue_width;
    }

    void
    load(Cycle done)
    {
        insts_ += 1;
        cycle_ += 1.0 / cfg_.issue_width;
        outstanding_.push_back(Pending{double(done), insts_});
        drain();
    }

    void
    store()
    {
        insts_ += 1;
        cycle_ += 1.0 / cfg_.issue_width;
    }

    void stall(Cycle cycles) { cycle_ += double(cycles); }

    void
    drainAll()
    {
        while (!outstanding_.empty()) {
            cycle_ = std::max(cycle_, outstanding_.front().done);
            outstanding_.pop_front();
        }
    }

  private:
    struct Pending
    {
        double done;
        double inst_at_issue;
    };

    void
    drain()
    {
        while (!outstanding_.empty() &&
               outstanding_.front().done <= cycle_) {
            outstanding_.pop_front();
        }
        while (!outstanding_.empty() &&
               (insts_ - outstanding_.front().inst_at_issue >
                    double(cfg_.rob_entries) ||
                outstanding_.size() > cfg_.max_outstanding)) {
            cycle_ = std::max(cycle_, outstanding_.front().done);
            outstanding_.pop_front();
        }
    }

    CoreConfig cfg_;
    double cycle_ = 0;
    double insts_ = 0;
    std::deque<Pending> outstanding_;
};

} // namespace reference

// ---------------------------------------------------------------------
// Differential tests
// ---------------------------------------------------------------------

void
expectSameCacheStats(const StatGroup &got, const StatGroup &want,
                     const std::string &where)
{
    for (const char *key : {"accesses", "hits", "misses", "writebacks"})
        ASSERT_EQ(got.get(key), want.get(key)) << where << " " << key;
}

/**
 * One cache geometry under one operation mix: @p access_pct percent
 * accesses, @p invalidate_pct percent invalidates, the rest probes.
 */
struct CacheCase
{
    CacheConfig cfg;
    unsigned trials;
    unsigned access_pct;
    unsigned invalidate_pct;
};

TEST(CacheDifferential, RandomOpsMatchReference)
{
    const CacheCase cases[] = {
        {{4 * 4 * kLineBytes, 4, "tiny"}, 8, 70, 10},
        {{2 * 1 * kLineBytes, 1, "direct"}, 8, 70, 10},
        {{8 * 8 * kLineBytes, 8, "wide"}, 8, 70, 10},
        // Tab. III geometries: L1D, L2 and the 1-core L3.
        {{128 * 8 * kLineBytes, 8, "l1d"}, 2, 70, 10},
        {{1024 * 8 * kLineBytes, 8, "l2"}, 2, 70, 10},
        {{2048 * 16 * kLineBytes, 16, "l3"}, 2, 70, 10},
        // Invalidate-heavy: sets keep holes, so the victim is often the
        // first invalid way of a partly filled 16-way set.
        {{4 * 16 * kLineBytes, 16, "holes16"}, 8, 60, 30},
        {{2048 * 16 * kLineBytes, 16, "l3-holes"}, 2, 60, 30},
    };
    Rng rng(0xcac4e);
    for (const CacheCase &c : cases) {
        const CacheConfig &cfg = c.cfg;
        for (unsigned trial = 0; trial < c.trials; ++trial) {
            Cache got(cfg);
            reference::Cache want(cfg);
            uint64_t sets = cfg.size_bytes / kLineBytes / cfg.ways;
            for (unsigned op = 0; op < 20000; ++op) {
                // Mostly 3x a set's ways over at most 4 sets, so even a
                // 2,048-set geometry fills and evicts; the rest spread
                // over 3x the capacity. The high part keeps the set and
                // changes only the tag.
                uint64_t line =
                    rng.chance(0.25)
                        ? rng.below(sets * cfg.ways * 3)
                        : rng.below(cfg.ways * 3) * sets +
                              rng.below(std::min<uint64_t>(sets, 4));
                line += rng.below(4) << 34;
                Addr addr = line * kLineBytes + rng.below(64);
                std::string where = std::string(cfg.name) + " trial " +
                                    std::to_string(trial) + " op " +
                                    std::to_string(op);
                uint64_t kind = rng.below(100);
                if (kind < c.access_pct) {
                    bool write = rng.chance(0.4);
                    CacheResult a = got.access(addr, write);
                    CacheResult b = want.access(addr, write);
                    ASSERT_EQ(a.hit, b.hit) << where;
                    ASSERT_EQ(a.writeback, b.writeback) << where;
                    ASSERT_EQ(a.victim_addr, b.victim_addr) << where;
                } else if (kind < 100 - c.invalidate_pct) {
                    ASSERT_EQ(got.contains(addr), want.contains(addr))
                        << where;
                } else {
                    bool da = true, db = false;
                    ASSERT_EQ(got.invalidate(addr, da),
                              want.invalidate(addr, db))
                        << where;
                    ASSERT_EQ(da, db) << where;
                }
                expectSameCacheStats(got.stats(), want.stats(), where);
            }
        }
    }
}

TEST(CoreModelDifferential, RandomOpsMatchReference)
{
    Rng rng(0xc03e);
    for (unsigned max_outstanding : {0u, 1u, 10u, 64u}) {
        for (unsigned rob : {1u, 192u}) {
            CoreConfig cfg;
            cfg.rob_entries = rob;
            cfg.max_outstanding = max_outstanding;
            for (unsigned trial = 0; trial < 4; ++trial) {
                CoreModel got(cfg);
                reference::CoreModel want(cfg);
                for (unsigned op = 0; op < 20000; ++op) {
                    std::string where =
                        "mlp " + std::to_string(max_outstanding) +
                        " rob " + std::to_string(rob) + " trial " +
                        std::to_string(trial) + " op " + std::to_string(op);
                    uint64_t kind = rng.below(100);
                    if (kind < 35) {
                        double n = double(rng.below(256)) / 4;
                        got.advanceInsts(n);
                        want.advanceInsts(n);
                    } else if (kind < 80) {
                        // Half hit-like, half miss-like latencies.
                        Cycle lat = rng.chance(0.5) ? rng.below(40)
                                                    : 100 + rng.below(400);
                        got.load(got.now() + lat);
                        want.load(want.now() + lat);
                    } else if (kind < 95) {
                        got.store();
                        want.store();
                    } else if (kind < 99) {
                        Cycle c = rng.below(1000);
                        got.stall(c);
                        want.stall(c);
                    } else {
                        got.drainAll();
                        want.drainAll();
                    }
                    // System copies its cores; the copy must carry the
                    // window on.
                    if (op == 10000)
                        got = CoreModel(got);
                    ASSERT_EQ(got.now(), want.now()) << where;
                    ASSERT_EQ(got.instsRetired(), want.instsRetired())
                        << where;
                }
                got.drainAll();
                want.drainAll();
                ASSERT_EQ(got.now(), want.now());
            }
        }
    }
}

void
runMetadataDifferential(bool half_opt, uint64_t seed)
{
    Rng rng(seed);
    for (unsigned trial = 0; trial < 24; ++trial) {
        MetadataCacheConfig cfg;
        unsigned sets = 1 + unsigned(rng.below(3));
        cfg.ways = 1u << rng.below(4); // 1, 2, 4 or 8
        cfg.size_bytes = size_t(sets) * cfg.ways * kMetadataEntryBytes;
        cfg.half_entry_opt = half_opt;

        MetadataCache got(cfg);
        reference::MetadataCache want(cfg);
        std::vector<std::pair<PageNum, bool>> evicted;
        got.setEvictHook([&](PageNum page, bool dirty) {
            evicted.emplace_back(page, dirty);
        });

        PageNum pages = PageNum(sets) * cfg.ways * 3;
        // A held predictor pointer stays valid until the next access to
        // its set.
        uint8_t *held_got = nullptr, *held_want = nullptr;
        size_t held_set = 0;
        for (unsigned op = 0; op < 4000; ++op) {
            PageNum page = rng.below(pages);
            bool half = rng.chance(0.5);
            std::string where = "trial " + std::to_string(trial) + " op " +
                                std::to_string(op) + " page " +
                                std::to_string(page);
            uint64_t kind = rng.below(20);
            bool touches_set = true;
            if (kind < 11) {
                bool dirty = rng.chance(0.3);
                ASSERT_EQ(got.access(page, half, dirty),
                          want.access(page, half, dirty))
                    << where;
            } else if (kind < 14) {
                got.reshape(page, half);
                want.reshape(page, half);
            } else if (kind < 16) {
                got.invalidate(page);
                want.invalidate(page);
            } else if (kind < 19) {
                touches_set = false;
                uint8_t *a = got.predictorCounter(page);
                uint8_t *b = want.predictorCounter(page);
                ASSERT_EQ(a == nullptr, b == nullptr) << where;
                if (a != nullptr) {
                    ASSERT_EQ(*a, *b) << where;
                    held_got = a;
                    held_want = b;
                    held_set = page % sets;
                }
            } else {
                touches_set = false;
                ASSERT_EQ(got.contains(page), want.contains(page)) << where;
            }
            if (touches_set && page % sets == held_set)
                held_got = held_want = nullptr;
            if (held_got != nullptr) {
                uint8_t v = uint8_t(rng.below(4));
                *held_got = v;
                *held_want = v;
            }
            ASSERT_EQ(evicted, want.evicted) << where;
            ASSERT_EQ(got.stats().counters(), want.stats_.counters())
                << where;
        }
        for (PageNum p = 0; p < pages; ++p) {
            ASSERT_EQ(got.contains(p), want.contains(p)) << "page " << p;
            uint8_t *a = got.predictorCounter(p);
            uint8_t *b = want.predictorCounter(p);
            ASSERT_EQ(a == nullptr, b == nullptr) << "page " << p;
            if (a != nullptr) {
                ASSERT_EQ(*a, *b) << "page " << p;
            }
        }
    }
}

TEST(MetadataCacheDifferential, HalfEntryOptOn)
{
    runMetadataDifferential(true, 0x5e7a1);
}

TEST(MetadataCacheDifferential, HalfEntryOptOff)
{
    runMetadataDifferential(false, 0x5e7a2);
}

} // namespace
