/**
 * @file
 * The platform timing simulator: replays a primitive trace (the
 * functional GC's output) on one of the five evaluated platforms
 * (Figure 12): host+DDR4, host+HMC, Charon near-memory, Charon
 * CPU-side, and the zero-cycle Ideal offload.
 *
 * GC threads are event-driven agents.  Within a phase every thread
 * executes its glue work and its trace buckets sequentially; threads
 * run concurrently and contend in the shared memory system (and for
 * Charon's unit pools); phases are barriers, mirroring the
 * ParallelScavenge phase structure.
 */

#ifndef CHARON_PLATFORM_PLATFORM_SIM_HH
#define CHARON_PLATFORM_PLATFORM_SIM_HH

#include <memory>
#include <ostream>
#include <vector>

#include "accel/backend.hh"
#include "cpu/host_model.hh"
#include "fault/fault.hh"
#include "gc/costs.hh"
#include "gc/trace.hh"
#include "hmc/hmc.hh"
#include "mem/ddr4.hh"
#include "platform/results.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/instrumentation.hh"
#include "sim/join.hh"
#include "sim/timeline.hh"

namespace charon::platform
{

/**
 * One platform instance; simulate() may be called once per trace.
 *
 * Thread-compatible, not thread-safe: an instance owns its entire
 * simulation state (event queue, memories, device) and touches no
 * globals, so the harness replays many instances concurrently — but
 * each instance must stay confined to one thread.
 */
class PlatformSim
{
  public:
    /**
     * @param kind which platform to model
     * @param cfg architectural parameters (Table 2)
     * @param cube_shift the address-to-cube mapping the trace was
     *        recorded with (HMC-backed platforms)
     * @param instr instrumentation context, wired through every
     *        component at construction.  When enabled the simulator
     *        emits GC/phase spans on a "gc" track, per-thread
     *        primitive and glue spans on "thread N" tracks, and the
     *        memory system, device, and host contribute their counter
     *        tracks.  The default (disabled) context costs nothing.
     * @param faults timing-layer fault plan.  The default (empty)
     *        plan attaches no engine at all: replays take exactly the
     *        pre-fault code paths and remain byte-identical to builds
     *        without the fault layer.  With a plan, unit deaths and
     *        cube outages re-dispatch in-flight offloads to the host
     *        path (the same route sub-threshold buckets already use),
     *        stalls delay offload issue, TLB poisoning slows Scan&Push
     *        probes, and link/TSV degradation shrinks the fluid
     *        capacities at phase boundaries.
     */
    PlatformSim(sim::PlatformKind kind, const sim::SystemConfig &cfg,
                int cube_shift, const sim::Instrumentation &instr = {},
                const fault::FaultPlan &faults = {});
    ~PlatformSim();

    PlatformSim(const PlatformSim &) = delete;
    PlatformSim &operator=(const PlatformSim &) = delete;

    /** Replay the whole run; returns aggregated timing and energy. */
    RunTiming simulate(const gc::RunTrace &trace);

    /** Replay a single collection (used by per-GC analyses). */
    GcTiming simulateGc(const gc::GcTrace &trace);

    sim::PlatformKind kind() const { return kind_; }
    const sim::SystemConfig &config() const { return cfg_; }

    /** The offload backend (pure-host platforms: nullptr). */
    const accel::OffloadBackend *backend() const
    {
        return backend_.get();
    }

    /** Events the simulation kernel has executed (perf metric). */
    std::uint64_t executedEvents() const
    {
        return eq_.executedEvents();
    }

    /**
     * Always 0: every event runs through the queue.  Kept only
     * because perfbench/driver.cc still adds it to executedEvents();
     * delete it together with that call.
     */
    std::uint64_t batchedEvents() const { return 0; }

    /** Faults that actually fired (null-safe; 0 without a plan). */
    std::uint64_t injectedFaults() const
    {
        return fault_ ? fault_->injectedFaults() : 0;
    }

    /** Print the memory-system statistics accumulated so far. */
    void dumpStats(std::ostream &os) const;

  private:
    /** Per-phase event-driven GC thread agent (defined in the .cc). */
    struct ThreadAgent;

    bool usesHmc() const;

    /**
     * Run one phase to completion.  Its threads add their primitive
     * and glue seconds to @p rollup, which must start zeroed; the
     * phase kind, wall time, bytes and invocations follow.
     */
    void runPhase(const gc::PhaseTrace &phase, gc::PhaseRollup &rollup);

    /** Lazily created "thread N" track (timeline attached only). */
    sim::Timeline::TrackId threadTrack(std::size_t thread);

    sim::PlatformKind kind_;
    sim::SystemConfig cfg_;
    int cubeShift_;
    gc::GlueCosts costs_;

    sim::EventQueue eq_;
    /** The joins buckets complete into; each resumes its agent. */
    sim::JoinPool joins_{eq_};
    std::unique_ptr<fault::FaultEngine> fault_;
    std::unique_ptr<mem::Ddr4Memory> ddr4_;
    std::unique_ptr<hmc::HmcMemory> hmc_;
    std::unique_ptr<accel::OffloadBackend> backend_;
    std::unique_ptr<cpu::HostModel> host_;

    sim::Timeline *timeline_ = nullptr;
    sim::Timeline::TrackId gcTrack_ = 0;
    std::vector<sim::Timeline::TrackId> threadTracks_;
    /** Pre-interned span names for the per-bucket emit path. */
    sim::Timeline::NameId primNames_[gc::kNumPrimKinds] = {};
    sim::Timeline::NameId glueName_ = 0;
};

} // namespace charon::platform

#endif // CHARON_PLATFORM_PLATFORM_SIM_HH
