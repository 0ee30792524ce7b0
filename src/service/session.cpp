#include "service/session.h"

namespace compresso {

TenantSession::TenantSession(const TenantSpec &spec,
                             const TenantPartition &part,
                             uint64_t service_seed)
    : part_(part), prof_(profileByName(spec.profile))
{
    // The partition is the footprint: the stream never addresses
    // outside [base, base + pages).
    prof_.pages = uint32_t(part_.pages);
    pristine_ = prof_;
    uint64_t stream_seed = Rng::combine(service_seed, part_.id);
    stream_ = std::make_unique<AccessStream>(prof_, stream_seed,
                                             part_.base_page);
    // Never advanced: its lineData() is the pristine version-0 image,
    // stable across adversary profile swaps.
    pristine_stream_ = std::make_unique<AccessStream>(
        pristine_, stream_seed, part_.base_page);
    if (spec.adversary)
        setAdversary(true);
}

void
TenantSession::generate(uint64_t n, std::vector<ServiceRef> &out)
{
    out.clear();
    out.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
        MemRef r = stream_->next();
        ServiceRef s;
        s.addr = r.addr;
        s.write = r.write;
        if (r.write) {
            // next() already advanced the model: this is the new
            // content. Written lines carry their recorded class, so
            // their content no longer depends on the live profile.
            written_.insert(r.addr / kLineBytes);
            stream_->lineData(r.addr, s.data);
        } else if (written_.count(r.addr / kLineBytes) != 0) {
            stream_->lineData(r.addr, s.data);
        } else {
            // Version-0 expectation: pinned to the pristine class
            // plan, which is what populate wrote — the live profile
            // may be mid-adversary-swap.
            pristine_stream_->lineData(r.addr, s.data);
        }
        out.push_back(s);
    }
    refs_ += n;
}

void
TenantSession::initialLineData(Addr addr, Line &out) const
{
    pristine_stream_->initialLineData(addr, out);
}

void
TenantSession::setAdversary(bool on)
{
    if (on == adversary_)
        return;
    if (on) {
        pristine_ = prof_;
        prof_.mix = ClassMix{};
        prof_.mix[size_t(DataClass::kRandom)] = 1.0;
        prof_.zero_line_frac = 0.0;
        prof_.hot_prob = 0.0; // page-random across the partition
        prof_.seq_frac = 0.0;
        prof_.write_frac = 0.85;
        prof_.churn = 1.0; // every write redraws -> incompressible
        prof_.stream_fill_random = 1.0;
    } else {
        uint32_t pages = prof_.pages;
        prof_ = pristine_;
        prof_.pages = pages;
    }
    adversary_ = on;
}

void
TenantSession::markDivergent(Addr addr)
{
    divergent_lines_.insert(addr / kLineBytes);
}

void
TenantSession::clearDivergent(Addr addr)
{
    divergent_lines_.erase(addr / kLineBytes);
}

void
TenantSession::onPageFreed(PageNum page)
{
    ++pages_lost_;
    // Line granularity so each line heals on its next committed
    // write; a page marker would leave the whole page unverifiable
    // forever.
    for (unsigned l = 0; l < kLinesPerPage; ++l)
        divergent_lines_.insert(uint64_t(page) * kLinesPerPage + l);
}

bool
TenantSession::divergent(Addr addr) const
{
    return divergent_lines_.count(addr / kLineBytes) != 0;
}

} // namespace compresso
