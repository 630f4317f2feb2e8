#include "platform_sim.hh"

#include <memory>

#include "sim/logging.hh"

namespace charon::platform
{

using gc::PrimKind;
using sim::PlatformKind;
using sim::Tick;

PlatformSim::PlatformSim(PlatformKind kind, const sim::SystemConfig &cfg,
                         int cube_shift,
                         const sim::Instrumentation &instr,
                         const fault::FaultPlan &faults)
    : kind_(kind),
      cfg_(cfg),
      cubeShift_(cube_shift),
      timeline_(instr.timeline()),
      gcTrack_(instr.track("gc"))
{
    // An engine only exists when the plan has timing-layer specs, so
    // fault-free replays keep the exact pre-fault code paths.
    if (faults.hasTimingFaults()) {
        fault_ = std::make_unique<fault::FaultEngine>(faults,
                                                      cfg_.hmc.cubes);
    }
    // Components are built memory system first, then the device, then
    // the host — also the order their instrumentation tracks appear
    // in exported traces.
    if (usesHmc()) {
        hmc_ = std::make_unique<hmc::HmcMemory>(eq_, cfg_.hmc, instr);
        hmc_->setCubeShift(cube_shift);
        if (fault_) {
            hmc::HmcMemory *hmc = hmc_.get();
            fault::FaultEngine::Hooks hooks;
            hooks.degradeLink = [hmc](int link, double factor) {
                hmc->degradeLink(link, factor);
            };
            hooks.degradeCube = [hmc](int cube, double factor) {
                hmc->degradeCube(cube, factor);
            };
            fault_->setHooks(std::move(hooks));
        }
    } else {
        ddr4_ = std::make_unique<mem::Ddr4Memory>(eq_, cfg_.ddr4, instr);
    }
    backend_ = accel::makeBackend(kind_, eq_, hmc_.get(), ddr4_.get(),
                                  cfg_, instr);
    if (backend_)
        backend_->setFaultEngine(fault_.get());
    // The backend may substitute the host attachment (a CXL expander
    // puts the host across its link); otherwise the platform default.
    mem::MemPort *port = backend_ ? backend_->hostPort() : nullptr;
    if (!port) {
        port = usesHmc() ? static_cast<mem::MemPort *>(&hmc_->hostPort())
                         : ddr4_.get();
    }
    host_ = std::make_unique<cpu::HostModel>(eq_, cfg_.host, *port,
                                             costs_, instr);
    if (timeline_) {
        for (int k = 0; k < gc::kNumPrimKinds; ++k)
            primNames_[k] = timeline_->intern(
                gc::primKindName(static_cast<PrimKind>(k)));
        glueName_ = timeline_->intern("glue");
    }
}

PlatformSim::~PlatformSim() = default;

sim::Timeline::TrackId
PlatformSim::threadTrack(std::size_t thread)
{
    while (threadTracks_.size() <= thread) {
        threadTracks_.push_back(timeline_->track(
            "thread " + std::to_string(threadTracks_.size())));
    }
    return threadTracks_[thread];
}

bool
PlatformSim::usesHmc() const
{
    // Only the DDR4 baseline keeps conventional DIMMs; the Ideal
    // platform is "host paired with a zero-cycle offload device",
    // evaluated on the same HMC memory as Charon.  The iGPU and CXL
    // backends are DDR4-backed: the iGPU shares the host controller,
    // and the CXL expander's media is commodity DRAM behind a link.
    return kind_ != PlatformKind::HostDdr4
           && kind_ != PlatformKind::IgpuOffload
           && kind_ != PlatformKind::CxlMsa;
}

/**
 * One event-driven GC thread: glue first, then each bucket in trace
 * order.  Agents live in a vector owned by runPhase; every closure
 * scheduled during the phase captures only the agent pointer, which
 * stays valid because eq_.run() drains before runPhase returns.
 */
struct PlatformSim::ThreadAgent
{
    PlatformSim *sim = nullptr;
    const gc::PhaseTrace *phase = nullptr;
    gc::ThreadSpan span;
    /** The phase's roll-up; this thread adds its seconds to it. */
    gc::PhaseRollup *rollup = nullptr;
    std::size_t next = 0;
    double hitRate = 0;
    sim::Timeline::TrackId ttrack = 0;
    /**
     * The in-flight bucket, materialized from the phase's columns
     * into agent-owned storage (the device/host models read it only
     * during the synchronous execBucket call, but the agent keeps it
     * alive for the whole bucket anyway).
     */
    gc::Bucket cur;
    Tick bucketStart = 0;
    /**
     * Fault-fallback epoch: bumped when a unit-death watchdog orphans
     * the in-flight offload so the device's (still draining) flows
     * complete into a no-op and the host re-execution owns the
     * bucket.  Without a fault plan it never changes.
     */
    std::uint64_t epoch = 0;
    sim::EventId watchdog = 0;

    void
    finish(Tick t)
    {
        rollup->prims[static_cast<int>(cur.kind)].seconds +=
            sim::ticksToSeconds(t - bucketStart);
        if (sim->timeline_) {
            sim->timeline_->completeSpan(
                ttrack, sim->primNames_[static_cast<int>(cur.kind)],
                bucketStart, t);
        }
        step();
    }

    /** Execute the current bucket on the host path (fallback route). */
    void
    hostDispatch()
    {
        PlatformSim &ps = *sim;
        const mem::Addr synth_addr =
            static_cast<mem::Addr>(cur.srcCube) << ps.cubeShift_;
        const std::uint64_t my_epoch = epoch;
        ps.host_->execBucket(
            cur, synth_addr, ps.joins_.acquire(1, [this, my_epoch](Tick t) {
                if (epoch != my_epoch)
                    return;
                finish(t);
            }));
    }

    /** Issue the current bucket to the device, fault-aware. */
    void
    deviceDispatch()
    {
        PlatformSim &ps = *sim;
        fault::FaultEngine *fe = ps.fault_.get();
        if (fe && fe->unitsDead(cur.srcCube, ps.eq_.now())) {
            // Degraded mode: the target units are dead; take the
            // host route new sub-threshold buckets already use.
            fe->noteFallback();
            hostDispatch();
            return;
        }
        if (fe) {
            // A death is pending: arm a watchdog that orphans the
            // in-flight offload at the death tick and re-dispatches
            // the bucket to the host.  Descheduled on normal
            // completion so it never stretches the phase barrier.
            Tick death = fe->deathTick(cur.srcCube);
            if (death != fault::FaultEngine::kNoTick
                && death > ps.eq_.now()) {
                const std::uint64_t my_epoch = epoch;
                watchdog =
                    ps.eq_.schedule(death, [this, my_epoch] {
                        if (epoch != my_epoch)
                            return;
                        ++epoch;
                        watchdog = 0;
                        sim->fault_->noteFallback();
                        hostDispatch();
                    });
            }
        }
        const std::uint64_t my_epoch = epoch;
        ps.backend_->execBucket(
            cur, hitRate, ps.joins_.acquire(1, [this, my_epoch](Tick t) {
                if (epoch != my_epoch)
                    return;
                if (watchdog) {
                    sim->eq_.deschedule(watchdog);
                    watchdog = 0;
                }
                finish(t);
            }));
    }

    void
    step()
    {
        if (next >= span.bucketCount)
            return; // thread done
        cur = phase->buckets.get(span.firstBucket + next++);
        PlatformSim &ps = *sim;
        bucketStart = ps.eq_.now();

        const bool offload = ps.backend_ && !cur.hostOnly
                             && ps.backend_->supports(cur.kind);
        const bool ideal =
            ps.kind_ == PlatformKind::Ideal && !cur.hostOnly;
        if (ideal) {
            // Zero-cycle offload: the primitive is free.
            ps.eq_.schedule(ps.eq_.now(), [this] {
                finish(sim->eq_.now());
            });
        } else if (offload) {
            // The host packs and issues one offload call per
            // invocation before blocking on the device.
            Tick issue = ps.host_->glueTicks(cur.invocations
                                             * ps.costs_.offloadIssue);
            if (ps.fault_) {
                issue += ps.fault_->stallTicks(cur.srcCube,
                                               ps.eq_.now());
            }
            ps.eq_.scheduleIn(issue, [this] { deviceDispatch(); });
        } else {
            hostDispatch();
        }
    }
};

void
PlatformSim::runPhase(const gc::PhaseTrace &phase,
                      gc::PhaseRollup &rollup)
{
    const Tick phase_start = eq_.now();
    if (fault_) {
        // Bandwidth faults (link/TSV/cube-offline) take effect at
        // phase boundaries: applying them here keeps the engine from
        // scheduling standing events that would stretch the phase
        // barrier (eq_.run() drains until empty).
        fault_->applyPendingDegrades(phase_start);
    }
    std::vector<ThreadAgent> agents(phase.threads.size());

    for (std::size_t ti = 0; ti < phase.threads.size(); ++ti) {
        const auto &span = phase.threads[ti];
        ThreadAgent &agent = agents[ti];
        agent.sim = this;
        agent.phase = &phase;
        agent.span = span;
        agent.rollup = &rollup;
        agent.hitRate = phase.bitmapCacheHitRate;
        agent.ttrack = timeline_ ? threadTrack(ti) : 0;

        // Kick off with the glue lump.
        Tick glue = host_->glueTicks(span.glueInstructions);
        if (timeline_ && glue > 0)
            timeline_->completeSpan(agent.ttrack, glueName_, phase_start,
                                    phase_start + glue);
        eq_.scheduleIn(glue, [agentp = &agent, glue] {
            agentp->rollup->glueSeconds += sim::ticksToSeconds(glue);
            agentp->step();
        });
    }

    eq_.run(); // phase barrier: drain every thread and flow

    // The threads filled the seconds; join the functional trace's
    // byte/invocation counts (one columnar pass yields every kind's).
    rollup.kind = phase.kind;
    rollup.wallSeconds = sim::ticksToSeconds(eq_.now() - phase_start);
    const auto totals = phase.primTotals();
    for (int k = 0; k < gc::kNumPrimKinds; ++k) {
        rollup.prims[k].bytes = totals.bytes[k];
        rollup.prims[k].invocations = totals.invocations[k];
    }
}

GcTiming
PlatformSim::simulateGc(const gc::GcTrace &trace)
{
    GcTiming timing;
    timing.major = trace.major;
    Tick start = eq_.now();

    if (backend_ && trace.capabilityMask != 0) {
        // Backend prologue at GC start (cache flush, kernel warmup,
        // coherence handoff).  A collector with an empty capability
        // set never dispatches to the device, so it skips the
        // prologue and the whole replay stays on the host path.
        eq_.scheduleIn(backend_->gcPrologueTicks(), [] {});
        eq_.run();
    }
    timing.rollup.major = trace.major;
    timing.rollup.phases.reserve(trace.phases.size());
    for (const auto &phase : trace.phases) {
        Tick phase_start = eq_.now();
        gc::PhaseRollup rollup;
        runPhase(phase, rollup);
        timing.rollup.phases.push_back(rollup);
        if (timeline_) {
            timeline_->completeSpan(gcTrack_,
                                    gc::phaseKindName(phase.kind),
                                    phase_start, eq_.now());
        }
    }
    timing.seconds = sim::ticksToSeconds(eq_.now() - start);
    if (timeline_) {
        timeline_->completeSpan(gcTrack_,
                                trace.major ? "major GC" : "minor GC",
                                start, eq_.now());
    }
    return timing;
}

void
PlatformSim::dumpStats(std::ostream &os) const
{
    if (hmc_)
        hmc_->dumpStats(os);
    else
        ddr4_->dumpStats(os);
}

RunTiming
PlatformSim::simulate(const gc::RunTrace &trace)
{
    RunTiming result;
    result.platform = kind_;

    for (const auto &gc : trace.gcs) {
        double unit_before = backend_ ? backend_->unitBusySeconds() : 0;
        GcTiming timing = simulateGc(gc);
        if (backend_)
            timing.unitSeconds =
                backend_->unitBusySeconds() - unit_before;
        result.gcs.push_back(timing);
        result.gcSeconds += timing.seconds;
        if (timing.major)
            result.majorSeconds += timing.seconds;
        else
            result.minorSeconds += timing.seconds;
    }

    // Mutator time: application instructions across all cores at the
    // configured mutator IPC.
    std::uint64_t mutator_instr = 0;
    for (auto n : trace.mutatorInstructions)
        mutator_instr += n;
    result.mutatorSeconds =
        static_cast<double>(mutator_instr)
        / (cfg_.host.mutatorIpc * cfg_.host.freqHz * cfg_.host.numCores);

    // Memory observations.
    double bytes = usesHmc() ? hmc_->totalBytes() : ddr4_->totalBytes();
    result.dramBytes = bytes;
    if (result.gcSeconds > 0)
        result.avgGcBandwidthGBs = bytes / 1e9 / result.gcSeconds;
    if (usesHmc() && bytes > 0)
        result.localAccessFraction = hmc_->localBytes() / bytes;

    // Energy over the GC intervals.
    double dram_pj =
        usesHmc() ? hmc_->energyPj() : ddr4_->energyPj();
    result.dramEnergyJ = dram_pj * 1e-12;

    // GC threads that offload spin-wait on the response (Section 4.1:
    // "the host thread remains blocked"), so the cores draw active
    // power on every platform; the savings come from shorter pauses
    // and the lower pJ/bit of stacked DRAM.
    const auto &h = cfg_.host;
    result.hostEnergyJ =
        (h.numCores * h.coreActivePowerW + h.uncorePowerW)
        * result.gcSeconds;
    if (backend_)
        result.unitEnergyJ = backend_->unitEnergyJ(result.gcSeconds);
    return result;
}

} // namespace charon::platform
