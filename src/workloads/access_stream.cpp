#include "workloads/access_stream.h"

#include <algorithm>
#include <cassert>

#include "prof/profiler.h"

namespace compresso {

namespace {

/** Initial size of the mutated-line table (a power of two). */
constexpr size_t kInitialSlots = 1024;

} // namespace

AccessStream::AccessStream(const WorkloadProfile &profile, uint64_t seed,
                           PageNum base_page, uint64_t phase_len)
    : profile_(profile),
      seed_(seed),
      base_page_(base_page),
      phase_len_(std::max<uint64_t>(1, phase_len)),
      rng_(Rng::mix(seed, 0xacce55ULL)),
      stream_pos_(Addr(base_page) * kPageBytes)
{
    // Slot keys are in-footprint line indices plus one.
    assert(uint64_t(profile.pages) * kLinesPerPage < UINT32_MAX);
}

size_t
AccessStream::probe(uint32_t key) const
{
    size_t mask = mutated_.size() - 1;
    size_t i = size_t((key * 0x9e3779b97f4a7c15ULL) >> 32) & mask;
    while (mutated_[i].key != key && mutated_[i].key != 0)
        i = (i + 1) & mask;
    return i;
}

AccessStream::LineState &
AccessStream::mutableState(Addr addr)
{
    uint32_t key = slotKey(addr);
    assert(key != 0);
    if (mutated_.empty())
        mutated_.resize(kInitialSlots);
    size_t i = probe(key);
    if (mutated_[i].key == 0) {
        if (4 * (mutated_count_ + 1) > 3 * mutated_.size()) {
            std::vector<Slot> old(2 * mutated_.size());
            old.swap(mutated_);
            for (const Slot &s : old)
                if (s.key != 0)
                    mutated_[probe(s.key)] = s;
            i = probe(key);
        }
        mutated_[i] = Slot{key, initialState(addr)};
        ++mutated_count_;
    }
    return mutated_[i].state;
}

AccessStream::LineState
AccessStream::initialState(Addr addr) const
{
    PageNum page = pageOf(addr) - base_page_;
    unsigned line = lineOf(addr);
    return LineState{lineClass(profile_, page, line, 0), 0};
}

AccessStream::LineState
AccessStream::stateOf(Addr addr) const
{
    uint32_t key = slotKey(addr);
    if (key != 0 && !mutated_.empty()) {
        const Slot &s = mutated_[probe(key)];
        if (s.key == key)
            return s.state;
    }
    return initialState(addr);
}

uint64_t
AccessStream::contentSeed(Addr addr, const LineState &s) const
{
    return Rng::mix(seed_, lineKey(addr), s.version);
}

void
AccessStream::lineData(Addr addr, Line &out) const
{
    LineState s = stateOf(addr);
    generateLine(s.cls, contentSeed(addr, s), out);
}

void
AccessStream::initialLineData(Addr addr, Line &out) const
{
    LineState s = initialState(addr);
    generateLine(s.cls, contentSeed(addr, s), out);
}

MemRef
AccessStream::next()
{
    CPR_PROF_SCOPE(ProfPhase::kStreamNext);
    MemRef ref;

    // Continue an in-page burst if one is active. Strides span several
    // lines (struct/row granularity): the lines share a metadata entry
    // but usually not a 64 B device block.
    if (burst_left_ > 0) {
        --burst_left_;
        burst_line_ = (burst_line_ + 4 +
                       unsigned(rng_.below(12))) % kLinesPerPage;
        ref.addr = Addr(burst_page_) * kPageBytes +
                   Addr(burst_line_) * kLineBytes;
        finishRef(ref, false);
        return ref;
    }

    bool streaming = rng_.chance(profile_.seq_frac);

    if (streaming) {
        stream_pos_ += kLineBytes;
        if (stream_pos_ >= endAddr())
            stream_pos_ = baseAddr();
        ref.addr = stream_pos_;
    } else if (rng_.chance(profile_.hot_prob)) {
        uint64_t hot_pages = std::max<uint64_t>(
            1, uint64_t(profile_.pages * profile_.hot_frac));
        PageNum page = base_page_ + rng_.below(hot_pages);
        // The hot working set is live data: programs rarely hammer
        // allocated-but-never-written (zero) pages. Zero pages are
        // still reached by streaming sweeps and cold accesses.
        for (int probe = 0;
             probe < 4 &&
             pageClass(profile_, page - base_page_, 0) == DataClass::kZero;
             ++probe) {
            page = base_page_ + rng_.below(hot_pages);
        }
        ref.addr = Addr(page) * kPageBytes +
                   rng_.below(kLinesPerPage) * kLineBytes;
    } else {
        PageNum page = base_page_ + rng_.below(profile_.pages);
        ref.addr = Addr(page) * kPageBytes +
                   rng_.below(kLinesPerPage) * kLineBytes;
    }

    if (!streaming) {
        // Start a burst on the chosen page: a handful of nearby lines
        // before the next page transition (spatial locality).
        burst_page_ = pageOf(ref.addr);
        burst_line_ = lineOf(ref.addr);
        burst_left_ = 6 + unsigned(rng_.below(20));
    }
    finishRef(ref, streaming);
    return ref;
}

void
AccessStream::finishRef(MemRef &ref, bool streaming)
{
    ref.write = rng_.chance(profile_.write_frac);
    ref.inst_gap = profile_.inst_per_mem * (0.5 + rng_.uniform());

    if (ref.write) {
        LineState &s = mutableState(ref.addr);
        ++s.version;
        if (rng_.chance(profile_.churn)) {
            if (streaming && rng_.chance(profile_.stream_fill_random)) {
                // The zero-init-then-stream pattern that motivates the
                // page-overflow predictor (Sec. IV-B2).
                s.cls = DataClass::kRandom;
            } else if (rng_.chance(0.6)) {
                // Most rewrites stay within the page's dominant data
                // structure; fresh content, same shape.
                s.cls = pageClass(profile_,
                                  pageOf(ref.addr) - base_page_,
                                  currentPhase());
            } else {
                // Compressibility swing: the phase mix governs how
                // much of the redrawn data is stale zeros vs fresh
                // incompressible values (Fig. 7's dynamics).
                ClassMix m = phaseMix(profile_, currentPhase());
                double z = m[size_t(DataClass::kZero)];
                double r = m[size_t(DataClass::kRandom)];
                double total = z + r > 0 ? z + r : 1.0;
                s.cls = rng_.chance(z / total) ? DataClass::kZero
                                               : DataClass::kRandom;
            }
        }
    }

    ++refs_;
}

} // namespace compresso
