/**
 * @file
 * The multi-tenant fleet simulator: N tenant heaps consolidated on
 * one node share the 4-cube HMC and its near-memory GC engine, with
 * an Arbiter mediating collection slots under a chosen policy.
 *
 * Two-level reuse of the record-once/replay-many architecture:
 *
 *  1. Per tenant, the ordinary harness pipeline produces a *solo
 *     profile* — the tenant's functional trace replayed on its chosen
 *     offload platform and again on the DDR4 host, yielding per-GC
 *     {accelerated pause, host pause, device unit-seconds, major}.
 *     Trace cache, collector capability routing, and OffloadBackend
 *     accounting all apply unchanged.
 *  2. The fleet discrete-event simulation then plays tenants against
 *     each other: seeded open-loop arrivals drive per-tenant request
 *     service; completed requests accumulate allocation credit; when
 *     a tenant's credit reaches its per-GC quantum the tenant stops
 *     the world and submits the next profile collection to the
 *     Arbiter.  A granted collection runs for its accelerated
 *     duration on a device slot; a host-fallback one runs for its
 *     host duration with no slot.  The pause a tenant experiences is
 *     arbitration wait plus duration, and every queued request eats
 *     that pause in its latency.
 *
 * Determinism contract: the DES is single-threaded over one
 * EventQueue; arrivals and service jitter come from per-tenant seeded
 * Rngs; fleet-wide distributions merge per-tenant accumulators in
 * tenant-index order.  Results are a pure function of (config,
 * profiles) — byte-identical at any --jobs, which only parallelizes
 * profile replays and bench grids.
 */

#ifndef CHARON_FLEET_FLEET_SIM_HH
#define CHARON_FLEET_FLEET_SIM_HH

#include <memory>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "fleet/arbiter.hh"
#include "fleet/arrival.hh"
#include "harness/cell.hh"
#include "sim/stats.hh"
#include "sim/timeline.hh"

namespace charon::harness
{
class ExperimentRunner;
}

namespace charon::fleet
{

/** One tenant: a heap, its collector/backend, and its load. */
struct TenantSpec
{
    std::string name;       ///< display tag ("t0:SRV"); filled by mixes
    std::string workload = "SRV";
    gc::CollectorModel collector = gc::CollectorModel::ParallelScavenge;
    /** Offload platform for this tenant's collections. */
    sim::PlatformKind platform = sim::PlatformKind::CharonNmp;
    std::uint64_t heapBytes = 0; ///< 0 = catalog default
    std::uint64_t seed = 1;
    /** Mean request rate (scales the shared arrival curve). */
    double meanRps = 2000;
    /** Mean request service time, microseconds. */
    double serviceUs = 120;
};

/** One collection of a tenant's solo profile. */
struct GcProfile
{
    sim::Tick accelTicks = 0; ///< pause on the tenant's platform
    sim::Tick hostTicks = 0;  ///< pause on the DDR4 host path
    double unitSec = 0;       ///< device unit-seconds consumed
    bool major = false;
};

/** The solo replay profile the fleet DES schedules from. */
struct TenantProfile
{
    std::vector<GcProfile> gcs;
    double soloAccelSec = 0; ///< total accelerated GC seconds
    double soloHostSec = 0;  ///< total host GC seconds
};

/**
 * Build every tenant's profile through @p runner (two replay cells
 * per tenant: its platform and the DDR4 host; parallel across cells,
 * deterministic assembly).  False on any failed cell, with the first
 * diagnostic in @p error.
 */
bool buildProfiles(harness::ExperimentRunner &runner,
                   const std::vector<TenantSpec> &tenants,
                   std::vector<TenantProfile> *out, std::string *error);

/** The whole fleet configuration. */
struct FleetConfig
{
    std::vector<TenantSpec> tenants;
    ArbPolicy policy = ArbPolicy::Fcfs;
    /**
     * GC-pause SLO deadline, milliseconds (0 = none).  The deadline
     * policy schedules against it; every policy reports misses.
     * Note the repository's 1/64-scale heaps shrink pauses by the
     * same factor, so SLOs here are ~1 ms where production would say
     * ~60 ms.
     */
    double sloMs = 1.0;
    /** Arrival shape; per-tenant meanRps overrides the rate. */
    ArrivalConfig arrival;
    /**
     * Consolidation density: how many times each tenant cycles
     * through its solo GC profile over the horizon.  1 paces the
     * profile's collections evenly across the expected request count;
     * larger values model denser allocation per request (heavier
     * co-tenants on the same device), which is what pushes the
     * arbiter into contention.
     */
    double gcRateScale = 1.0;
    /**
     * Device collection slots; 0 derives the capacity from the first
     * accelerated tenant's platform (accel::concurrentOffloadSlots).
     */
    int slots = 0;
    /** Base seed for arrival and service-jitter streams. */
    std::uint64_t seed = 1;
    /**
     * Unit-death under load: unit-death / cube-offline specs (PR 5
     * grammar) kill one arbiter slot each at their at-ns tick;
     * cube=-1 kills every slot.  Other kinds are ignored here (they
     * act inside per-tenant replays, not on the shared capacity).
     */
    fault::FaultPlan faults;
    /** Collect per-tenant timelines (zero-cost when false). */
    bool timeline = false;
};

/** Per-tenant outcome. */
struct TenantResult
{
    std::string name;
    sim::QuantileAccumulator pauseMs;   ///< wait + duration, per GC
    sim::QuantileAccumulator requestMs; ///< arrival to completion
    std::uint64_t requests = 0;
    std::uint64_t gcs = 0;
    std::uint64_t hostFallbacks = 0;
    std::uint64_t sloMisses = 0;
    double maxPauseMs = 0;
};

/** Fleet-wide outcome. */
struct FleetResult
{
    std::vector<TenantResult> tenants;
    /** Fleet distributions: tenant accumulators merged in index
     *  order (deterministic). */
    sim::QuantileAccumulator pauseMs;
    sim::QuantileAccumulator requestMs;
    std::uint64_t requests = 0;
    std::uint64_t gcs = 0;
    std::uint64_t hostFallbacks = 0;
    std::uint64_t sloMisses = 0;
    int slotsKilled = 0;
    /**
     * Tenant-tagged timelines (one per tenant, process name =
     * tenant name, plus one "arbiter" process), in tenant order;
     * empty unless FleetConfig::timeline.
     */
    std::vector<std::unique_ptr<sim::Timeline>> timelines;
};

/** Run the fleet DES over pre-built profiles. */
FleetResult runFleet(const FleetConfig &cfg,
                     const std::vector<TenantProfile> &profiles);

/**
 * Named tenant mixes for benches and the CLI.  "services" is
 * all request-serving tenants (SRV/SES alternating); "mixed"
 * interleaves latency-sensitive services with batch Spark/GraphChi
 * tenants (BS, PR) whose "requests" model task submissions.
 */
std::vector<std::string> fleetMixNames();
std::vector<TenantSpec> fleetMix(const std::string &name, int tenants);

} // namespace charon::fleet

#endif // CHARON_FLEET_FLEET_SIM_HH
