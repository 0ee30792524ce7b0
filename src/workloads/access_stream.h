/**
 * @file
 * Deterministic access-stream and data-model generator for one
 * workload instance.
 *
 * The stream produces (address, read/write, instruction-gap) triples
 * following the profile's locality parameters, and owns the functional
 * data model: every line has a (data-class, version) state from which
 * its current 64 B content is synthesized on demand. Writes advance
 * the version and, with probability `churn`, redraw the class — which
 * is what makes compressed sizes drift and cache lines overflow or
 * underflow, exactly the dynamics Sec. IV is about.
 */

#ifndef COMPRESSO_WORKLOADS_ACCESS_STREAM_H
#define COMPRESSO_WORKLOADS_ACCESS_STREAM_H

#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "workloads/profiles.h"

namespace compresso {

/** One memory reference of the core's instruction stream. */
struct MemRef
{
    Addr addr = 0;
    bool write = false;
    /** Non-memory instructions preceding this reference. */
    double inst_gap = 0;
};

class AccessStream
{
  public:
    /**
     * @param profile   workload personality
     * @param seed      stream seed (vary per core / per experiment)
     * @param base_page first OSPA page of this instance's address range
     * @param phase_len references per compressibility phase
     */
    AccessStream(const WorkloadProfile &profile, uint64_t seed,
                 PageNum base_page = 0, uint64_t phase_len = 200000);

    /** Generate the next reference (mutates the data model on writes). */
    MemRef next();

    /** Current content of a line (zero if never part of the model). */
    void lineData(Addr addr, Line &out) const;

    /** Initial content of a line, before any stream writes; used to
     *  populate a controller with the benchmark's starting image. */
    void initialLineData(Addr addr, Line &out) const;

    const WorkloadProfile &profile() const { return profile_; }
    PageNum basePage() const { return base_page_; }
    uint32_t pages() const { return profile_.pages; }
    unsigned currentPhase() const
    {
        return unsigned(refs_ / phase_len_) % std::max(1u, profile_.phases);
    }
    uint64_t refsGenerated() const { return refs_; }

    /** Total footprint byte range [base, base+pages) for this stream. */
    Addr baseAddr() const { return Addr(base_page_) * kPageBytes; }
    Addr endAddr() const
    {
        return Addr(base_page_ + profile_.pages) * kPageBytes;
    }

  private:
    struct LineState
    {
        DataClass cls;
        uint32_t version;
    };

    /** One slot of the mutated-line table: @c key is the line's index
     *  inside this stream's footprint plus one; 0 marks an empty
     *  slot. */
    struct Slot
    {
        uint32_t key = 0;
        LineState state{};
    };
    static_assert(sizeof(Slot) == 12);

    uint64_t lineKey(Addr addr) const
    {
        return addr / kLineBytes;
    }
    /** Table key of @p addr, or 0 outside [baseAddr(), endAddr()). */
    uint32_t slotKey(Addr addr) const
    {
        if (addr < baseAddr() || addr >= endAddr())
            return 0;
        return uint32_t((addr - baseAddr()) / kLineBytes) + 1;
    }
    /** Linear-probe position of @p key: its slot, or the empty slot
     *  that ends its probe run. */
    size_t probe(uint32_t key) const;
    /** State of the in-footprint line @p addr, inserted with the
     *  line's initial state if it was never written. */
    LineState &mutableState(Addr addr);
    void finishRef(MemRef &ref, bool streaming);
    LineState initialState(Addr addr) const;
    LineState stateOf(Addr addr) const;
    uint64_t contentSeed(Addr addr, const LineState &s) const;

    const WorkloadProfile &profile_;
    uint64_t seed_;
    PageNum base_page_;
    uint64_t phase_len_;
    Rng rng_;
    uint64_t refs_ = 0;
    Addr stream_pos_;
    /** Page-burst state: real programs touch several lines of a page
     *  before moving on (what gives the 64-lines-per-metadata-entry
     *  leverage its value). */
    PageNum burst_page_ = 0;
    unsigned burst_left_ = 0;
    unsigned burst_line_ = 0;
    /** Lines written so far, open addressing with linear probing:
     *  1,024 slots from the first write on, doubled at 3/4 load. */
    std::vector<Slot> mutated_;
    size_t mutated_count_ = 0;
};

} // namespace compresso

#endif // COMPRESSO_WORKLOADS_ACCESS_STREAM_H
