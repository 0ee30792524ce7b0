#include "energy/energy_model.h"

namespace compresso {

namespace {

// DRAM (per 64 B burst / per command), nanojoules.
constexpr double kDramRwNj = 15.0;
constexpr double kDramActivateNj = 18.0;
/** DRAM background power (W) charged over wall-clock time. */
constexpr double kDramBackgroundW = 0.6;
/** Core active power per core (W) at 3 GHz. */
constexpr double kCoreW = 12.0;
constexpr double kCoreFreqHz = 3.0e9;
/** Metadata cache access energy (paper: 0.08 nJ). */
constexpr double kMdcacheAccessNj = 0.08;
/** BPC compressor active power (paper: 7 mW @ 800 MHz) and the
 *  12-cycle occupancy per (de)compression at 800 MHz. */
constexpr double kBpcW = 0.007;
constexpr double kBpcFreqHz = 800.0e6;
constexpr unsigned kBpcCyclesPerOp = 12;

} // namespace

EnergyBreakdown
computeEnergy(const StatGroup &dram_stats, double cycles, unsigned cores,
              uint64_t compressions, uint64_t md_accesses)
{
    EnergyBreakdown e;

    double seconds = cycles / kCoreFreqHz;
    uint64_t bursts = dram_stats.get("reads") + dram_stats.get("writes");
    e.dram_nj = double(bursts) * kDramRwNj +
                double(dram_stats.get("activates")) * kDramActivateNj +
                kDramBackgroundW * seconds * 1e9;

    e.core_nj = kCoreW * double(cores) * seconds * 1e9;

    double bpc_busy_s =
        double(compressions) * double(kBpcCyclesPerOp) / kBpcFreqHz;
    e.mc_nj = kBpcW * bpc_busy_s * 1e9 +
              double(md_accesses) * kMdcacheAccessNj;
    return e;
}

} // namespace compresso
