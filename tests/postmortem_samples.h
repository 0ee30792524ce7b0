/**
 * @file
 * The flight-recorder configuration and sample bundle shared by the
 * recorder tests and the report-tool round-trip.
 */

#ifndef COMPRESSO_TESTS_POSTMORTEM_SAMPLES_H
#define COMPRESSO_TESTS_POSTMORTEM_SAMPLES_H

#include "obs/flight_recorder.h"

namespace compresso {

/** Small capacities, so every cap is reachable in a few triggers. */
inline FlightRecorderConfig
smallConfig()
{
    FlightRecorderConfig cfg;
    cfg.ring_snapshot = 8;
    cfg.max_bundles = 4;
    cfg.chain_capacity = 4;
    cfg.rearm_triggers = 4;
    cfg.watermark_capacity = 2;
    return cfg;
}

/** One swap_full bundle with notes, a governor section and a
 *  watermark (recorder standalone: null clock/tracer/attrib). */
inline PostmortemBundle
sampleBundle()
{
    FlightRecorder fr(smallConfig(), nullptr, nullptr, nullptr);
    fr.setNote("kind", "compresso");
    fr.setNote("seed", "1");
    fr.addProvider([](PostmortemBundle &b) {
        b.sections["governor"]["level"] = 3;
    });
    fr.noteLevel(2, 120);
    fr.trigger(PostmortemTrigger::kSwapFull, 11, 0);
    return fr.bundles().back();
}

} // namespace compresso

#endif // COMPRESSO_TESTS_POSTMORTEM_SAMPLES_H
