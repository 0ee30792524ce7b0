#include "common/stats.h"

#include <algorithm>
#include <iomanip>

namespace compresso {

void
StatGroup::dump(std::ostream &os) const
{
    for (const auto &[key, value] : counters_) {
        os << std::left << std::setw(40)
           << (name_.empty() ? key : name_ + "." + key)
           << value << "\n";
    }
}

void
StatGroup::merge(const StatGroup &other)
{
    for (const auto &[key, value] : other.counters_)
        counters_[key] += value;
}

bool
StatGroup::mergeChecked(const StatGroup &other, std::string *bad_key)
{
    if (counters_.empty()) {
        counters_ = other.counters_;
        return true;
    }
    // Validate both directions before touching any counter, so a
    // failed merge leaves the accumulator untouched. Both maps are
    // sorted, so one linear walk finds the first divergent key.
    auto it = counters_.begin();
    auto jt = other.counters_.begin();
    while (it != counters_.end() && jt != other.counters_.end()) {
        if (it->first != jt->first) {
            if (bad_key != nullptr)
                *bad_key = std::min(it->first, jt->first);
            return false;
        }
        ++it;
        ++jt;
    }
    if (it != counters_.end() || jt != other.counters_.end()) {
        if (bad_key != nullptr)
            *bad_key = it != counters_.end() ? it->first : jt->first;
        return false;
    }
    for (const auto &[key, value] : other.counters_)
        counters_[key] += value;
    return true;
}

} // namespace compresso
