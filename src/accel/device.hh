/**
 * @file
 * Timing model of the Charon processing units (Sections 4.1-4.5).
 *
 * Unit pools are modelled as shared issue-bandwidth resources
 * (FluidChannels): a Copy/Search unit issues one 256 B request per
 * logic-layer cycle, a Bitmap Count unit consumes one 64-bit word
 * pair per cycle, a Scan&Push unit issues one (16 B minimum) request
 * per cycle.  Each offloaded bucket concurrently occupies its unit
 * pool and the HMC resources its memory traffic crosses; the slowest
 * resource bounds the bucket, and the per-offload round trip (host ->
 * command queue -> unit -> response packet, Section 4.1) serializes
 * on the blocked host thread.
 *
 * Scheduling follows the paper: Copy/Search and Bitmap Count run on
 * the cube that houses their source data; Scan&Push runs on the
 * central cube (ablatably).  The CPU-side placement (Figure 16) puts
 * every pool beside the host memory controller instead, so all traffic
 * crosses the off-chip link.
 */

#ifndef CHARON_ACCEL_DEVICE_HH
#define CHARON_ACCEL_DEVICE_HH

#include <memory>
#include <vector>

#include "accel/backend.hh"
#include "fault/fault.hh"
#include "gc/trace.hh"
#include "hmc/hmc.hh"
#include "mem/fluid_channel.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/instrumentation.hh"
#include "sim/join.hh"

namespace charon::accel
{

/**
 * Units of each kind the device's pools hold.  Copy/Search and
 * Bitmap Count units, and Scan&Push units when placed locally, are
 * spread evenly over the cubes with at least one per cube, so their
 * count is a multiple of the cube count rather than the configured
 * n; central Scan&Push keeps all n on cube 0.
 */
struct CharonUnits
{
    int copySearch = 0;
    int bitmapCount = 0;
    int scanPush = 0;

    int total() const { return copySearch + bitmapCount + scanPush; }
};

/** The unit layout of a Charon device built on @p cfg. */
CharonUnits charonUnits(const sim::SystemConfig &cfg);

/** Table 4 area with each unit row at the count charonUnits() lays out. */
double charonAreaMm2(const sim::SystemConfig &cfg);

/**
 * The near-memory accelerator backend: executes trace buckets on
 * behalf of blocked host threads.
 */
class CharonDevice : public OffloadBackend
{
  public:
    /**
     * @param cpu_side place the units at the host memory controller
     *        instead of the HMC logic layer (Figure 16): they then see
     *        only the off-chip link bandwidth, not the TSVs
     * @param instr instrumentation: every unit pool becomes a counter
     *        track (busy == active flows > 0), and address-translation
     *        traffic gets a "charon.tlb.remote" counter of lookups
     *        that crossed a spoke link to the unified TLB /
     *        bitmap-cache on the central cube (Section 4.6; the
     *        contention Figure 15 distributes away).
     */
    CharonDevice(sim::EventQueue &eq, hmc::HmcMemory &hmc,
                 const sim::SystemConfig &cfg, bool cpu_side,
                 const sim::Instrumentation &instr = {});

    sim::BackendKind kind() const override
    {
        return sim::BackendKind::Charon;
    }

    /** Charon implements every primitive of Table 1. */
    std::uint32_t capabilityMask() const override
    {
        return gc::kAllPrimsMask;
    }

    /**
     * Execute one aggregated bucket.
     * @param bucket the work (kind, cubes, bytes, invocation count)
     * @param bitmap_hit_rate measured bitmap-cache hit rate of the
     *        enclosing phase (Bitmap Count / Scan&Push mark RMWs)
     * @param done join the bucket arrives on (the host thread
     *        unblocks)
     */
    void execBucket(const gc::Bucket &bucket, double bitmap_hit_rate,
                    sim::Join *done) override;

    /**
     * Host-side cost of the bulk cache flush at GC start
     * (Section 4.6 "Effect on Host Cache"): LLC size over the
     * off-chip bandwidth.
     */
    sim::Tick gcPrologueTicks() const override;

    /** Round-trip offload overhead per invocation to @p cube. */
    sim::Tick offloadOverhead(int cube) const override;

    /** Unit-seconds of processing-unit activity (for energy). */
    double unitBusySeconds() const override;

    /** Offload request+response packet bytes issued so far. */
    double packetBytes() const override { return packetBytes_; }

    /** Busy units at active power, the rest of unit-time idling. */
    double unitEnergyJ(double gc_seconds) const override;

    double areaMm2() const override;

    const sim::CharonConfig &config() const { return cfg_.charon; }

    /**
     * Attach a fault engine (owned by the PlatformSim; may be null).
     * The device only consults it for TLB poisoning: a poisoned
     * fraction of unit address translations falls back to a
     * host-mediated walk, adding a link round trip to the average
     * probe latency of Scan&Push.
     */
    void setFaultEngine(const fault::FaultEngine *engine) override
    {
        fault_ = engine;
    }

  private:
    /**
     * Copy, Search and Bit Sweep: a flow on the kind's unit pool, a
     * MAI-limited sequential read of the source and, except for
     * Search, the write to the destination cube.
     */
    void execStream(const gc::Bucket &b, int unit_cube, sim::Join *join);
    void execScanPush(const gc::Bucket &b, double hit_rate,
                      int unit_cube, sim::Join *join);
    void execBitmapCount(const gc::Bucket &b, double hit_rate,
                         int unit_cube, sim::Join *join);
    void execRefCount(const gc::Bucket &b, int unit_cube,
                      sim::Join *join);

    /**
     * Random 16 B probes of @p probe_bytes spread over every cube,
     * plus the @p write_bytes write-back to @p home_cube.
     */
    void scatterProbes(int unit_cube, std::uint64_t probe_bytes,
                       std::uint64_t write_bytes, int home_cube,
                       double rate, sim::Join *join);

    /** Cube whose unit pool runs bucket @p b. */
    int unitCube(const gc::Bucket &b) const;

    /** Origin the unit's memory traffic departs from. */
    hmc::Origin unitOrigin(int cube) const;

    /**
     * True when a unit on @p unit_cube reaches the unified bitmap
     * cache / TLB on the central cube over its spoke link.
     */
    bool remoteStructures(int unit_cube) const;

    /**
     * Latency of a unit's first access: the local vault, or the full
     * off-chip round trip for a CPU-side unit (Figure 16).
     */
    sim::Tick firstAccessLatency(mem::AccessPattern p) const;

    /**
     * Mean latency of a random probe from @p unit_cube to a target
     * spread over all cubes, remote TLB lookup included.
     */
    double meanProbeLatency(int unit_cube) const;

    /** Pool channel for a kind on a cube. */
    mem::FluidChannel &pool(gc::PrimKind kind, int cube);

    sim::EventQueue &eq_;
    hmc::HmcMemory &hmc_;
    sim::SystemConfig cfg_;
    bool cpuSide_; ///< units beside the host memory controller
    CharonUnits units_;
    /** Root joins of the buckets. */
    sim::JoinPool joins_{eq_};

    // Per-cube pools (index = cube); Scan&Push has one pool at the
    // central cube unless placed locally.
    std::vector<std::unique_ptr<mem::FluidChannel>> copySearchPools_;
    std::vector<std::unique_ptr<mem::FluidChannel>> bitmapCountPools_;
    std::vector<std::unique_ptr<mem::FluidChannel>> scanPushPools_;

    double packetBytes_ = 0;

    const fault::FaultEngine *fault_ = nullptr;

    sim::Timeline *timeline_ = nullptr;
    sim::Timeline::TrackId tlbTrack_ = 0;
    std::uint64_t remoteTlbLookups_ = 0;
};

} // namespace charon::accel

#endif // CHARON_ACCEL_DEVICE_HH
