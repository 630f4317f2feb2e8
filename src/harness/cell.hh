/**
 * @file
 * The experiment cell model: the declarative unit the bench binaries
 * hand to the ExperimentRunner.
 *
 * A cell names one (workload, heap, seed, collector) *functional* run
 * — the slow part, keyed for the on-disk trace cache — plus one
 * platform replay of its trace.  Many cells usually share a
 * functional key (Figure 12 replays every workload on four
 * platforms); the runner executes each key once and fans the replays
 * out over a thread pool.
 */

#ifndef CHARON_HARNESS_CELL_HH
#define CHARON_HARNESS_CELL_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "gc/collector_iface.hh"
#include "gc/trace.hh"
#include "platform/results.hh"
#include "sim/config.hh"

namespace charon::harness
{

/** The earlier name of gc::CollectorModel, kept for perfbench. */
using CollectorKind = gc::CollectorModel;

/**
 * Everything that determines the bytes of a functional trace.  Two
 * cells with equal keys share one mutator run; the key (plus the
 * trace format version) also names the on-disk cache entry.
 */
struct FunctionalKey
{
    std::string workload;     ///< catalog short name ("KM", "CC", ...)
    gc::CollectorModel collector = gc::CollectorModel::ParallelScavenge;
    std::uint64_t heapBytes = 0; ///< 0 = catalog default (resolved by the runner)
    std::uint64_t seed = 1;
    int gcThreads = 8;
    int numCubes = 4;
    /** Copies below this stay on the host (recorder default: 256). */
    std::uint64_t copyOffloadThreshold = 256;

    /** Canonical text form; identity for memoization and hashing. */
    std::string str() const;

    bool operator==(const FunctionalKey &o) const
    {
        return str() == o.str();
    }
};

/**
 * The outcome of one functional run: the replayable trace plus the
 * mutator-side facts the benches report.  Exactly what the trace
 * cache persists, so a cache hit is indistinguishable from a rerun.
 */
struct FunctionalRun
{
    gc::RunTrace trace;
    int cubeShift = 0;
    bool oom = false;
    std::uint64_t gcsMinor = 0;     ///< PS minor / G1 young collections
    std::uint64_t gcsMajor = 0;     ///< PS major / G1 mixed collections
    std::uint64_t markCycles = 0;   ///< G1 concurrent cycles
    std::uint64_t allocatedBytes = 0;
    std::uint64_t mutatorInstructions = 0;
};

/** One (functional run, platform replay) pair. */
struct Cell
{
    FunctionalKey key;
    sim::PlatformKind platform = sim::PlatformKind::HostDdr4;
    /** false: functional-only cell (trace inspection, Table 1). */
    bool replay = true;
    /** Architectural overrides for the replay (Table 2 defaults). */
    sim::SystemConfig config{};
    /**
     * Replay-side trace rewrite (ablations force bitmap-cache hit
     * rates); applied to a private copy, never to the cached trace.
     */
    std::function<void(gc::RunTrace &)> patchTrace;
    /**
     * Escape hatch for bespoke functional pipelines (Table 1 runs
     * collectors outside the catalog mutators): executed instead of
     * the keyed mutator run, never cached.
     */
    std::function<FunctionalRun()> customRun;
    /**
     * Timing-layer fault plan for the replay (chaos experiments).
     * Deliberately not part of SystemConfig so DSE journal keys and
     * config digests are undisturbed; the default (empty) plan keeps
     * the replay byte-identical to a fault-free build.
     */
    fault::FaultPlan faults;
    /** Display name used in failure summaries. */
    std::string label;
};

/** Outcome of one cell, in the order the cells were submitted. */
struct CellResult
{
    /** Functional run completed without OOM and the replay (if
     *  requested) finished. */
    bool ok = false;
    bool oom = false;
    std::string error; ///< diagnostic when !ok
    std::shared_ptr<const FunctionalRun> run;
    platform::RunTiming timing; ///< valid when ok && cell.replay
};

/** A Table 2 replay cell for @p workload on @p platform, labelled
 *  "W on P". */
Cell cell(std::string workload, sim::PlatformKind platform,
          std::uint64_t heap_bytes = 0, std::uint64_t seed = 1,
          int gc_threads = 8, int num_cubes = 4);

/** All six workload names in catalog (Table 3) order. */
std::vector<std::string> allWorkloads();

/**
 * The heap a collector-family grid gives @p workload under
 * @p collector: 2x the Table 3 heap for RC, which keeps every object
 * in the old space, and for G1 on ALS, whose humongous factor
 * matrices fragment a region heap; 0 (the catalog default)
 * otherwise.
 */
std::uint64_t familyHeapBytes(const std::string &workload,
                              gc::CollectorModel collector);

/**
 * The collector-family grid: @p workloads x gc::kCollectorModels x
 * @p platforms, platform fastest so one functional run feeds all of
 * its replays, each at familyHeapBytes() and labelled "W (tok) on P".
 */
std::vector<Cell> familyCells(const std::vector<std::string> &workloads,
                              std::span<const sim::PlatformKind> platforms);

} // namespace charon::harness

#endif // CHARON_HARNESS_CELL_HH
