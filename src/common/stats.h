/**
 * @file
 * Lightweight named-counter statistics, in the spirit of gem5's stats
 * package but reduced to what the reproduction needs: scalar counters
 * and simple derived ratios, grouped per component and dumpable as
 * aligned text.
 */

#ifndef COMPRESSO_COMMON_STATS_H
#define COMPRESSO_COMMON_STATS_H

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

namespace compresso {

/**
 * A group of named uint64 counters. Components own a StatGroup and
 * bump counters through operator[] or — on hot paths — through a
 * cached handle from stat(); harnesses read them by name. The
 * `statgroup-hot-path` rule of tools/compresso_lint.py enforces
 * handles inside CPR_PROF_SCOPE blocks and in the per-reference files
 * it lists.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name = "") : name_(std::move(name)) {}

    /** Access (creating if absent) the counter called @p key. */
    uint64_t &operator[](const std::string &key) { return counters_[key]; }

    /**
     * Hot-path handle: a reference to the counter called @p key that
     * stays valid for the StatGroup's lifetime. std::map nodes are
     * stable under insertion and reset() zeroes in place rather than
     * erasing, so components capture the reference once at
     * construction and bump it without any per-event lookup.
     */
    uint64_t &stat(const char *key) { return counters_[key]; }

    /** Read a counter; returns 0 for names never bumped. */
    uint64_t
    get(const std::string &key) const
    {
        auto it = counters_.find(key);
        return it == counters_.end() ? 0 : it->second;
    }

    /** Ratio of two counters; 0 when the denominator is 0. */
    double
    ratio(const std::string &num, const std::string &den) const
    {
        uint64_t d = get(den);
        return d == 0 ? 0.0 : double(get(num)) / double(d);
    }

    /** Zero every counter in place. Keys (and therefore the handles
     *  returned by stat()) survive; only the values reset. */
    void
    reset()
    {
        for (auto &[key, value] : counters_)
            value = 0;
    }

    const std::string &name() const { return name_; }
    const std::map<std::string, uint64_t> &counters() const { return counters_; }

    /** Dump "group.key value" lines (keys in sorted order). */
    void dump(std::ostream &os) const;

    /** Fold another group's counters into this one (summing). Keys
     *  absent on either side are adopted silently — use mergeChecked()
     *  when the two groups must describe the same counter set. */
    void merge(const StatGroup &other);

    /**
     * Checked fold: same-key counters sum; a key-set mismatch is an
     * error. An empty group adopts @p other wholesale (the
     * accumulator-seeding case); otherwise both groups must have
     * exactly the same keys. On mismatch nothing is merged, the first
     * offending key is reported via @p bad_key (when non-null), and
     * the method returns false. The campaign engine (src/exec) builds
     * its cross-job aggregates through this so a job that silently
     * diverged in what it counted is surfaced instead of averaged in.
     */
    bool mergeChecked(const StatGroup &other,
                      std::string *bad_key = nullptr);

  private:
    std::string name_;
    std::map<std::string, uint64_t> counters_;
};

} // namespace compresso

#endif // COMPRESSO_COMMON_STATS_H
