/**
 * @file
 * Timing model of the host processor executing GC work.
 *
 * The paper's host-side argument (Sections 1 and 3.3) is that the
 * out-of-order core achieves limited memory-level parallelism — the
 * 36-entry instruction window and load/store queue cap in-flight
 * misses, dependent pointer chases clog the window — and that even
 * when MLP is available, off-chip bandwidth binds.  This model
 * renders exactly those two effects per aggregated trace bucket:
 *
 *  - sequential work (Copy, Search payloads) streams at the
 *    MSHR-limited rate min(mshrs x 64 B / latency, channel share);
 *  - dependent random work (Scan&Push probes) streams at
 *    (IW / instructions-per-probe) x 64 B / latency;
 *  - Bitmap Count is compute-bound: the Figure 8 bit loop at
 *    ~cpuCyclesPerBitmapBit with the (tiny) bitmap L2-resident;
 *  - everything else ("glue") retires at the measured GC IPC (<0.5,
 *    Section 1).
 *
 * One HostThreadModel instance is one GC thread pinned to one core;
 * contention between threads emerges in the shared memory system.
 */

#ifndef CHARON_CPU_HOST_MODEL_HH
#define CHARON_CPU_HOST_MODEL_HH

#include "gc/costs.hh"
#include "gc/trace.hh"
#include "mem/mem_model.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/instrumentation.hh"
#include "sim/join.hh"
#include "sim/timeline.hh"

namespace charon::cpu
{

/**
 * Executes trace buckets and glue work for one GC thread on one core.
 */
class HostModel
{
  public:
    /**
     * @param instr instrumentation: a "host.memstall" counter track
     *        samples how many GC threads are currently stalled on an
     *        in-flight primitive bucket (the host-side MLP ceiling of
     *        Section 3.3, visible as a plateau at the thread count
     *        whenever memory binds).
     */
    HostModel(sim::EventQueue &eq, const sim::HostConfig &cfg,
              mem::MemPort &port, const gc::GlueCosts &costs,
              const sim::Instrumentation &instr = {});

    /** Ticks to retire @p instructions of glue at the GC IPC. */
    sim::Tick glueTicks(std::uint64_t instructions) const;

    /**
     * Execute one bucket on the CPU; arrives on @p done once, at
     * completion, always from a scheduled event.
     * @param bucket aggregated primitive work
     * @param synth_addr synthetic base address used to attribute the
     *        traffic to the right cube on an HMC-backed port
     */
    void execBucket(const gc::Bucket &bucket, mem::Addr synth_addr,
                    sim::Join *done);

    /** MSHR-limited sequential stream rate (bytes/tick). */
    double seqRate() const;

    /** Window-limited dependent-miss rate (bytes/tick, 64 B lines). */
    double randomRate() const;

    const sim::HostConfig &config() const { return cfg_; }

  private:
    void execCopySearch(const gc::Bucket &b, mem::Addr addr,
                        sim::Join *done);
    void execScanPush(const gc::Bucket &b, mem::Addr addr,
                      sim::Join *done);
    void execBitSweep(const gc::Bucket &b, mem::Addr addr,
                      sim::Join *done);
    void execRefCount(const gc::Bucket &b, mem::Addr addr,
                      sim::Join *done);

    /**
     * Stream @p req while the core runs a loop ending at
     * @p loop_done; arrive on @p done at the later of the two.
     */
    void overlapLoop(const mem::StreamRequest &req, sim::Tick loop_done,
                     sim::Join *done);

    /** Per-invocation fixed overhead (call setup, checks), ticks. */
    sim::Tick invocationOverhead(gc::PrimKind kind) const;

    sim::EventQueue &eq_;
    sim::HostConfig cfg_;
    mem::MemPort &port_;
    gc::GlueCosts costs_;
    sim::ClockDomain clock_;
    sim::JoinPool joins_{eq_};

    sim::Timeline *timeline_ = nullptr;
    sim::Timeline::TrackId stallTrack_ = 0;
    int stalledThreads_ = 0;

    /**
     * Instructions per dependent probe in the traversal loop
     * (push_contents: load, null/mark checks, barrier, stack push).
     */
    static constexpr double kInstrPerProbe = 20.0;
};

} // namespace charon::cpu

#endif // CHARON_CPU_HOST_MODEL_HH
