// Fixture: a codec file (src/compress/*.cpp) is hot as a whole: its
// helpers run once per line of every populate, outside the
// CPR_PROF_SCOPE of the public entry points that call them.
// Never compiled; scanned by run_lint_fixtures.py.
#include <cstddef>

struct HotFileCodec
{
    size_t
    sizeLine(unsigned planes)
    {
        stats_.stat("size_calls") += 1;     // LINT: statgroup-hot-path
        if (planes == 0) {
            ++st_zero_lines_; // cached handle: the blessed idiom
            return 4;
        }
        ++codecStats_["planes"];            // LINT: statgroup-hot-path
        return 9 * planes;
    }

    StatGroup stats_{"bpc"};
    StatGroup &codecStats_;
    uint64_t &st_zero_lines_;
};
