/**
 * @file
 * The offload-backend interface: what PlatformSim needs from *any*
 * accelerator that executes trace buckets on behalf of blocked host
 * threads — near-memory Charon units, an integrated GPU, or a CXL
 * memory-side accelerator.
 *
 * The contract (DESIGN.md "The OffloadBackend contract"):
 *
 *  - **Primitive dispatch.** execBucket() consumes one aggregated
 *    bucket and arrives on the caller's join exactly once, always
 *    from an event: the bucket's root join fans in its unit-pool and
 *    memory flows and carries the per-invocation overhead as its
 *    delay, so it completes one event after the flows finish; an
 *    empty bucket (zero invocations) completes at the current tick
 *    via one scheduled event, never synchronously.  A backend declares
 *    which of the six primitives it implements via capabilityMask();
 *    PlatformSim routes unsupported kinds to the host model.
 *  - **Translation/TLB model.** Each backend owns its own address
 *    translation cost (Charon: per-cube TLBs with remote unified-TLB
 *    probes; iGPU: IOMMU walks; CXL: device TLB with host-managed
 *    invalidations) and consults the attached fault engine's TLB
 *    poisoning rate inside that model.
 *  - **Area/energy reporting.** unitBusySeconds()/unitEnergyJ()/
 *    areaMm2() summarize the backend for the DSE objectives.
 *  - **Determinism.** A backend must be a pure function of the event
 *    queue: replaying the same trace twice yields bit-identical
 *    timing, independent of wall clock or --jobs.
 */

#ifndef CHARON_ACCEL_BACKEND_HH
#define CHARON_ACCEL_BACKEND_HH

#include <cstdint>
#include <memory>

#include "fault/fault.hh"
#include "gc/capability.hh"
#include "gc/trace.hh"
#include "mem/mem_model.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/instrumentation.hh"
#include "sim/join.hh"

namespace charon::mem
{
class Ddr4Memory;
}
namespace charon::hmc
{
class HmcMemory;
}

namespace charon::accel
{

/** Abstract accelerator executing offloaded GC primitives. */
class OffloadBackend
{
  public:
    virtual ~OffloadBackend() = default;

    /** Which engine this is (stable identity for reports/keys). */
    virtual sim::BackendKind kind() const = 0;

    /** Human-readable backend name. */
    const char *name() const { return sim::backendName(kind()); }

    /** OR of gc::primBit(kind) for the primitives this backend runs. */
    virtual std::uint32_t capabilityMask() const = 0;

    /** True when the backend implements @p kind. */
    bool supports(gc::PrimKind kind) const
    {
        return (capabilityMask() & gc::primBit(kind)) != 0;
    }

    /**
     * Execute one aggregated bucket.
     * @param bucket the work (kind, cubes, bytes, invocation count)
     * @param bitmap_hit_rate measured bitmap/metadata cache hit rate
     *        of the enclosing phase
     * @param done join the bucket arrives on once (the host thread
     *        unblocks); always from a scheduled event, never inline
     */
    virtual void execBucket(const gc::Bucket &bucket,
                            double bitmap_hit_rate, sim::Join *done) = 0;

    /**
     * Host-side cost paid once at GC start before the first offload
     * (cache flush / kernel warmup / coherence handoff).
     */
    virtual sim::Tick gcPrologueTicks() const = 0;

    /** Round-trip offload overhead per invocation to @p cube. */
    virtual sim::Tick offloadOverhead(int cube) const = 0;

    /** Unit-seconds of processing-unit activity (for energy). */
    virtual double unitBusySeconds() const = 0;

    /** Offload request+response packet bytes issued so far. */
    virtual double packetBytes() const = 0;

    /** Backend energy over a GC lasting @p gc_seconds (Joules). */
    virtual double unitEnergyJ(double gc_seconds) const = 0;

    /** Silicon area charged to the backend (mm^2). */
    virtual double areaMm2() const = 0;

    /**
     * Port the *host* model should stream through, or nullptr to use
     * the platform default (HMC host port / DDR4).  A CXL backend
     * reroutes the host across its link; others leave it alone.
     */
    virtual mem::MemPort *hostPort() { return nullptr; }

    /** Attach a fault engine (owned by the PlatformSim; may be null). */
    virtual void setFaultEngine(const fault::FaultEngine *engine) = 0;
};

/** Issue bandwidth of one unit in bytes/tick at @p bytes_per_cycle. */
double issueRate(double freq_hz, int bytes_per_cycle);

/**
 * Energy of a pool of @p units over a GC lasting @p gc_seconds:
 * busy unit-seconds at active power, the rest of unit-time idling.
 */
double unitPoolEnergyJ(double busy_seconds, int units, double gc_seconds,
                       double active_w, double idle_w);

/**
 * Build the backend for @p kind, or nullptr for pure-host platforms
 * (HostDdr4, HostHmc, Ideal).  Concrete backend types are named only
 * here: Charon backends require @p hmc, iGPU/CXL require @p ddr4.
 */
std::unique_ptr<OffloadBackend>
makeBackend(sim::PlatformKind kind, sim::EventQueue &eq,
            hmc::HmcMemory *hmc, mem::Ddr4Memory *ddr4,
            const sim::SystemConfig &cfg,
            const sim::Instrumentation &instr = {});

/** Area of the offload engine @p kind carries (0 for pure host). */
double backendAreaMm2(sim::PlatformKind kind, const sim::SystemConfig &cfg);

/**
 * How many tenant GCs the platform's shared offload engine can
 * accelerate concurrently (the fleet arbiter's slot capacity):
 * one slot per HMC cube for the near-memory configurations (each
 * cube's unit pair serves one collection at near-full rate when the
 * tenant heap is interleaved), 1 for the single-device iGPU/CXL
 * engines, and 0 for pure-host platforms — no shared accelerator,
 * so nothing to arbitrate.
 */
int concurrentOffloadSlots(sim::PlatformKind kind,
                           const sim::SystemConfig &cfg);

} // namespace charon::accel

#endif // CHARON_ACCEL_BACKEND_HH
