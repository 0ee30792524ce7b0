/**
 * @file
 * Event-count energy model (Sec. VII-C/D).
 *
 * Energies are charged per event from the simulation statistics, with
 * the constants the paper reports: the synthesized BPC unit draws 7 mW
 * at 800 MHz (< 0.4% of a DDR4-2666 channel's active power); a 96 KB
 * 8-way metadata cache access costs 0.08 nJ (< 0.8% of a DRAM read).
 * DRAM access/activate energies use standard DDR4 datasheet-scale
 * values; core energy scales with cycles.
 */

#ifndef COMPRESSO_ENERGY_ENERGY_MODEL_H
#define COMPRESSO_ENERGY_ENERGY_MODEL_H

#include <cstdint>

#include "common/stats.h"

namespace compresso {

struct EnergyBreakdown
{
    double dram_nj = 0;
    double core_nj = 0;
    double mc_nj = 0; ///< compressor + metadata cache

    double total() const { return dram_nj + core_nj + mc_nj; }
};

/**
 * Charge energies from run statistics.
 *
 * @param dram_stats   DramModel stats (reads/writes/activates)
 * @param cycles       wall-clock CPU cycles
 * @param cores        active core count
 * @param compressions number of compression + decompression operations
 * @param md_accesses  metadata cache accesses (0 for uncompressed)
 */
EnergyBreakdown computeEnergy(const StatGroup &dram_stats, double cycles,
                              unsigned cores, uint64_t compressions,
                              uint64_t md_accesses);

} // namespace compresso

#endif // COMPRESSO_ENERGY_ENERGY_MODEL_H
