/**
 * @file
 * The synthetic mutator: drives a heap through a workload's
 * allocation pattern, triggering collections when allocation fails,
 * and leaves the resulting primitive trace in a TraceRecorder.
 *
 * The mutator is the functional stand-in for running Spark/GraphChi
 * on a JVM: object *demography* (sizes, lifetimes, reference density)
 * follows the WorkloadParams, while the GC activity it provokes is
 * completely real.  It is the same for every collector family: the
 * heap's shape and the collection policy sit behind
 * gc::CollectorIface and heap::ObjectHeap.
 */

#ifndef CHARON_WORKLOAD_MUTATOR_HH
#define CHARON_WORKLOAD_MUTATOR_HH

#include <deque>
#include <memory>
#include <vector>

#include "gc/collector.hh"
#include "gc/recorder.hh"
#include "heap/heap.hh"
#include "sim/rng.hh"
#include "workload/catalog.hh"

namespace charon::workload
{

/**
 * Address-to-cube shift such that a VA span of @p va_limit bytes is
 * spread over @p cubes cubes, mirroring the paper's interleaving of
 * 1 GiB huge pages via numa_alloc_onnode (Section 4.6).
 */
int chooseCubeShift(mem::Addr va_limit, int cubes = 4);

/**
 * Binary-search the smallest heap (in whole MiB) at which the
 * workload completes without OOM — the paper's "minimum heap size"
 * (Section 3.1), used as the Figure 2 baseline.
 */
std::uint64_t findMinimumHeapBytes(const WorkloadParams &params,
                                   std::uint64_t seed = 1);

/**
 * One application run.
 */
class Mutator
{
  public:
    struct RunResult
    {
        bool oom = false;
        std::uint64_t minorGcs = 0;   ///< minor / G1 young collections
        std::uint64_t majorGcs = 0;   ///< major / G1 mixed collections
        std::uint64_t markCycles = 0; ///< G1 marking cycles
        std::uint64_t allocatedBytes = 0;
        std::uint64_t mutatorInstructions = 0;
    };

    /**
     * @param params workload demography
     * @param heap_bytes max heap (overrides params.heapBytes)
     * @param seed workload RNG seed
     * @param gc_threads GC threads the trace is striped over
     * @param num_cubes HMC cubes the heap is interleaved across
     * @param model collector family managing the heap
     */
    Mutator(const WorkloadParams &params, std::uint64_t heap_bytes,
            std::uint64_t seed = 1, int gc_threads = 8,
            int num_cubes = 4,
            gc::CollectorModel model =
                gc::CollectorModel::ParallelScavenge);

    /** Run the application to completion (or OOM). */
    RunResult run();

    gc::CollectorIface &collector() { return *collector_; }
    gc::TraceRecorder &recorder() { return *rec_; }
    heap::ObjectHeap &heap() { return *heap_; }
    /** The heap of the PS, CMS and RC families; panics under G1. */
    heap::ManagedHeap &generationalHeap();
    int cubeShift() const { return cubeShift_; }
    const WorkloadParams &params() const { return params_; }

  private:
    using RootSlot = std::size_t;

    /**
     * Allocate with GC-on-failure: up to three attempts, the
     * collector's humongous path for objects its fast path can never
     * hold.  Returns 0 on OOM.
     */
    mem::Addr allocate(heap::KlassId klass, std::uint64_t array_len = 0);

    RootSlot addRoot(mem::Addr obj);
    void removeRoot(RootSlot slot);
    mem::Addr rootAt(RootSlot slot) const;

    /** Keep @p obj alive briefly via the circular temp-root buffer. */
    void holdTemp(mem::Addr obj);

    /**
     * Keep a *large* temporary (partition buffer, factor matrix)
     * alive only while it is plausibly in flight: a tiny ring, so at
     * most a few such buffers survive into any collection.
     */
    void holdBigTemp(mem::Addr obj);

    void buildGraph();
    void runIteration();
    void serveRequests();
    void allocSmallTemps();
    mem::Addr randomGraphNode();

    WorkloadParams params_;
    MutatorKlasses klasses_;
    std::unique_ptr<heap::ObjectHeap> heap_;
    std::unique_ptr<gc::TraceRecorder> rec_;
    std::unique_ptr<gc::CollectorIface> collector_;
    sim::Rng rng_;
    int cubeShift_ = 30;

    bool oom_ = false;
    RunResult result_;

    std::vector<RootSlot> freeSlots_;
    RootSlot registrySlot_ = 0;   ///< objArray holding the graph nodes
    RootSlot matrixSlot_ = 0;     ///< ALS matrix
    RootSlot factorSlot_ = 0;     ///< ALS factor of the last iteration
    bool factorSlotValid_ = false;
    std::deque<RootSlot> cache_;  ///< retained RDD partitions (FIFO)
    std::deque<RootSlot> sessions_; ///< service session cache (FIFO)
    std::vector<RootSlot> tempRing_;
    std::size_t tempCursor_ = 0;
    std::vector<RootSlot> bigTempRing_;
    std::size_t bigTempCursor_ = 0;
    std::vector<RootSlot> shardRing_; ///< per-iteration shard buffers

    static constexpr std::size_t kBigTempRingSize = 4;
};

} // namespace charon::workload

#endif // CHARON_WORKLOAD_MUTATOR_HH
