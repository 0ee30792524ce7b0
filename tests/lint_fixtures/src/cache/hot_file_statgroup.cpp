// Fixture: a file that matches HOT_PATH_FILES (src/cache/*.cpp) is hot
// as a whole, with or without a CPR_PROF_SCOPE block. This is the
// pattern Cache::access used before its counters moved to handles.
// Never compiled; scanned by run_lint_fixtures.py.
#include <cstdint>

struct HotFileCache
{
    bool
    access(bool hit)
    {
        ++stats_["accesses"];               // LINT: statgroup-hot-path
        if (hit) {
            ++stats_["hits"];               // LINT: statgroup-hot-path
            return true;
        }
        ++st_misses_; // cached handle: the blessed idiom, no finding
        return false;
    }

    // The handles live in the header: in a hot file even a
    // stats_.stat("...") member initializer would be a finding.
    StatGroup stats_{"l1"};
    uint64_t &st_misses_;
};
