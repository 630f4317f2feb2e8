/**
 * @file
 * The declarative configuration space of the design-space explorer.
 *
 * A DsePoint is one candidate Charon design: the functional knobs
 * that key a trace (workload, heap, seed, GC threads, cubes, copy
 * offload threshold) plus the replay-side architecture knobs the
 * paper's sensitivity studies vary (per-primitive unit counts, TSV
 * and link bandwidth, distributed structures).  A ParamSpace is a
 * base point plus named axes; enumeration is the cartesian product
 * in declaration order (last axis fastest), so the sweep order — and
 * therefore every journal and report — is deterministic.
 *
 * Axes are registered by name with string-typed values so the same
 * registry serves C++ callers, `charon-explore --axis units=2,4,8`,
 * and the presets.  Unknown names and unparseable values are
 * rejected at registration time, never mid-sweep.
 */

#ifndef CHARON_DSE_PARAM_SPACE_HH
#define CHARON_DSE_PARAM_SPACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/cell.hh"
#include "sim/config.hh"

namespace charon::dse
{

/** One candidate design: everything that determines its evaluation. */
struct DsePoint
{
    // Functional knobs (enter the trace-cache key).
    std::string workload = "KM";
    gc::CollectorModel collector = gc::CollectorModel::ParallelScavenge;
    std::uint64_t heapBytes = 0; ///< 0 = catalog default
    std::uint64_t seed = 1;
    int gcThreads = 8;
    int numCubes = 4;
    std::uint64_t copyOffloadThreshold = 256;

    // Replay-side architecture knobs (never enter the trace key).
    int copySearchUnits = 8;
    int bitmapCountUnits = 8;
    int scanPushUnits = 8;
    double tsvGBsPerCube = 320.0;
    double linkGBs = 80.0;
    bool distributedStructures = false;

    /**
     * Offload backend evaluated against the DDR4 host baseline:
     * CharonNmp (default), IgpuOffload, CxlMsa, or HostHmc (the
     * "no accelerator, better memory" control).
     */
    sim::PlatformKind backend = sim::PlatformKind::CharonNmp;

    // Fleet knobs (multi-tenant simulation; src/fleet).  All three
    // default to the single-tenant "not a fleet point" state and emit
    // no str() token there, so journals written before the axes
    // existed resume with zero re-evaluated cells.
    /** Tenant heaps sharing the node; 0 = single-tenant evaluation. */
    int tenants = 0;
    /** Arbitration policy token: "fcfs", "fair", or "deadline". */
    std::string arbPolicy = "fcfs";
    /** Pause-deadline SLO handed to the arbiter, ms; 0 = none. */
    double fleetSloMs = 0;

    /** Canonical text form: the point's identity in journals and
     *  reports. */
    std::string str() const;

    /** The functional half, as the harness keys it. */
    harness::FunctionalKey functionalKey() const;

    /** Table 2 defaults with this point's overrides applied. */
    sim::SystemConfig systemConfig() const;

    bool operator==(const DsePoint &o) const { return str() == o.str(); }
};

/** One named axis: the values it sweeps, as written by the user. */
struct ParamAxis
{
    std::string name;
    std::vector<std::string> values;
};

/**
 * Base point + axes; enumerate() yields base with each combination
 * of axis values applied, in deterministic cartesian order.
 */
class ParamSpace
{
  public:
    DsePoint base;

    /**
     * Register an axis.  @p name must be a registered axis name and
     * every value must parse; returns false (with a diagnostic in
     * @p error) otherwise.
     */
    bool axis(const std::string &name, std::vector<std::string> values,
              std::string *error = nullptr);

    /** `--axis name=v1,v2,...` form. */
    bool axisSpec(const std::string &spec, std::string *error = nullptr);

    const std::vector<ParamAxis> &axes() const { return axes_; }

    /** Number of points in the product (1 with no axes). */
    std::size_t size() const;

    /**
     * The full cartesian product in declaration order, last axis
     * fastest.  Deterministic: two calls yield identical sequences.
     */
    std::vector<DsePoint> enumerate() const;

    /**
     * A seeded pseudo-random sample of @p samples distinct points,
     * returned in enumeration order.  samples >= size() degrades to
     * enumerate().
     */
    std::vector<DsePoint> sample(std::size_t samples,
                                 std::uint64_t seed) const;

    /** Registered axis names with a one-line description each. */
    static std::vector<std::pair<std::string, std::string>> axisHelp();

  private:
    std::vector<ParamAxis> axes_;
};

/**
 * Apply one (axis, value) pair to @p point; false when @p name is
 * not a registered axis or @p value does not parse.
 */
bool applyAxisValue(DsePoint &point, const std::string &name,
                    const std::string &value, std::string *error);

} // namespace charon::dse

#endif // CHARON_DSE_PARAM_SPACE_HH
