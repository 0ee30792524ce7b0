#include "capacity/capacity_eval.h"

#include <algorithm>
#include <memory>

#include "capacity/paging_model.h"
#include "os/sim_os.h"
#include "workloads/access_stream.h"

namespace compresso {

namespace {

/** Budget re-evaluation interval in touches (the paper pauses every
 *  200 M instructions). */
constexpr uint64_t kInterval = 20000;

} // namespace

CapacityResult
evalCapacity(const CapacitySpec &spec)
{
    unsigned n = unsigned(spec.workloads.size());
    CapacityResult res;

    // Streams and ratio timelines per benchmark.
    std::vector<std::unique_ptr<AccessStream>> streams;
    std::vector<std::unique_ptr<RatioTimeline>> ratios;
    uint64_t total_pages = 0;
    PageNum base = 0;
    bool repack = spec.kind == McKind::kCompresso;
    for (unsigned c = 0; c < n; ++c) {
        const WorkloadProfile &prof = profileByName(spec.workloads[c]);
        streams.push_back(std::make_unique<AccessStream>(
            prof, Rng::mix(spec.seed, c + 1), base,
            std::max<uint64_t>(1, spec.touches_per_core /
                                      std::max(1u, prof.phases))));
        ratios.push_back(
            std::make_unique<RatioTimeline>(prof, spec.kind, repack));
        base += prof.pages + 16;
        total_pages += prof.pages;
    }

    SimOs os(total_pages); // start unconstrained for the warm-up

    // Warm-up: fault in the whole footprint once so cold faults do not
    // penalize any configuration.
    for (auto &s : streams) {
        for (PageNum p = s->basePage();
             p < s->basePage() + s->pages(); ++p) {
            os.touch(p, true);
        }
    }
    os.stats().reset();
    os.swap().stats().reset();
    if (spec.swap_frac > 0) {
        os.swap().setCapacity(std::max<uint64_t>(
            1, uint64_t(spec.swap_frac * double(total_pages))));
    }

    std::vector<uint64_t> faults(n, 0);
    std::vector<uint64_t> touches(n, 0);
    std::vector<PageNum> last_page(n, ~PageNum(0));
    double ratio_sum = 0;
    uint64_t intervals = 0;

    uint64_t total_touches = spec.touches_per_core * n;
    for (uint64_t t = 0; t < total_touches; ++t) {
        unsigned c = unsigned(t % n);
        if (t % kInterval == 0) {
            // Re-evaluate the budget with the current compressibility
            // (the paper's dynamic cgroup adjustment).
            double ratio = 0;
            double weight = 0;
            for (unsigned i = 0; i < n; ++i) {
                const WorkloadProfile &prof = streams[i]->profile();
                double r = ratios[i]->ratioAt(streams[i]->currentPhase());
                ratio += r * double(prof.pages);
                weight += double(prof.pages);
            }
            ratio /= weight;
            ratio_sum += ratio;
            ++intervals;
            uint64_t budget = spec.unconstrained
                ? total_pages
                : uint64_t(spec.mem_frac * double(total_pages) * ratio);
            budget = std::min<uint64_t>(budget, total_pages);
            budget = std::max<uint64_t>(budget, 16);
            os.setBudget(budget);
        }
        // Page-granularity touches: consecutive references to the
        // same page (in-page bursts) are one residency event.
        MemRef ref = streams[c]->next();
        PageNum page = pageOf(ref.addr);
        while (page == last_page[c]) {
            ref = streams[c]->next();
            page = pageOf(ref.addr);
        }
        last_page[c] = page;
        bool fault = os.touch(page, ref.write);
        ++touches[c];
        faults[c] += fault ? 1 : 0;
    }

    res.faults = os.faults();
    res.swap_full = os.swap().swapFullRejections();
    res.budget_overruns = os.budgetOverruns();
    res.avg_ratio = intervals ? ratio_sum / double(intervals) : 1.0;

    double progress_sum = 0;
    for (unsigned c = 0; c < n; ++c) {
        double slowdown =
            1.0 + double(faults[c]) * spec.fault_cost /
                      std::max<uint64_t>(1, touches[c]);
        double prog = 1.0 / slowdown;
        res.per_core_progress.push_back(prog);
        progress_sum += prog;
        if (slowdown > 8.0)
            res.stalled = true; // thrashing: "does not finish"
    }
    res.progress = progress_sum / double(n);
    res.slowdown = res.progress > 0 ? 1.0 / res.progress : 1e9;
    return res;
}

double
capacitySpeedup(const CapacitySpec &spec)
{
    CapacitySpec base_spec = spec;
    base_spec.kind = McKind::kUncompressed;
    base_spec.unconstrained = false;
    CapacityResult base = evalCapacity(base_spec);
    CapacityResult sys = evalCapacity(spec);
    if (base.progress <= 0)
        return 1.0;
    return sys.progress / base.progress;
}

} // namespace compresso
