/**
 * @file
 * Result structures produced by the platform timing simulator; the
 * bench harness turns these into the paper's figures.
 */

#ifndef CHARON_PLATFORM_RESULTS_HH
#define CHARON_PLATFORM_RESULTS_HH

#include <optional>
#include <vector>

#include "gc/rollup.hh"
#include "gc/trace.hh"
#include "sim/config.hh"

namespace charon::platform
{

/** Timing of one collection. */
struct GcTiming
{
    bool major = false;
    double seconds = 0;          ///< pause wall-clock
    /** Processing-unit busy-seconds this collection consumed on the
     *  offload backend (0 on pure-host platforms): the per-GC demand
     *  the fleet arbiter charges against the shared device. */
    double unitSeconds = 0;
    gc::GcRollup rollup;         ///< per-phase thread time and traffic
};

/** Timing + energy of a whole run's GC activity on one platform. */
struct RunTiming
{
    sim::PlatformKind platform = sim::PlatformKind::HostDdr4;

    double gcSeconds = 0;
    double minorSeconds = 0;
    double majorSeconds = 0;
    double mutatorSeconds = 0;
    std::vector<GcTiming> gcs;

    // Memory-system observations over the GC intervals.
    double dramBytes = 0;
    double avgGcBandwidthGBs = 0;
    double localAccessFraction = 0; ///< Charon platforms only

    // Energy over the GC intervals (Joules).
    double hostEnergyJ = 0;
    double dramEnergyJ = 0;
    double unitEnergyJ = 0;

    double
    totalEnergyJ() const
    {
        return hostEnergyJ + dramEnergyJ + unitEnergyJ;
    }

    /**
     * Thread-seconds over the minor (@p major false) or the major
     * collections' roll-ups: of primitive @p kind, or of the host
     * glue when @p kind is empty.  Phases sum in order within a
     * collection, then collections in order.
     */
    double
    threadSeconds(bool major, std::optional<gc::PrimKind> kind) const
    {
        double sum = 0;
        for (const auto &gc : gcs) {
            if (gc.major != major)
                continue;
            sum += kind ? gc.rollup.totalByKind(*kind).seconds
                        : gc.rollup.glueSeconds();
        }
        return sum;
    }

    /**
     * Whole-run thread-seconds of @p kind (glue when empty): the minor
     * sum plus the major sum.  RunRollup::totalByKind interleaves the
     * two classes, so its doubles differ in the last bits.
     */
    double
    threadSeconds(std::optional<gc::PrimKind> kind) const
    {
        return threadSeconds(false, kind) + threadSeconds(true, kind);
    }

    /** The per-phase roll-ups of every collection, in order. */
    gc::RunRollup
    rollup() const
    {
        gc::RunRollup r;
        r.gcs.reserve(gcs.size());
        for (const auto &gc : gcs)
            r.gcs.push_back(gc.rollup);
        return r;
    }
};

} // namespace charon::platform

#endif // CHARON_PLATFORM_RESULTS_HH
