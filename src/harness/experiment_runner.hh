/**
 * @file
 * ExperimentRunner: record once, replay many, in parallel.
 *
 * Takes a declarative list of Cells, executes each distinct
 * functional key exactly once (trace cache first, mutator run on a
 * miss), then replays every cell's platform simulation on an N-thread
 * pool.  Results come back in cell-submission order regardless of
 * completion order, and each replay owns a private PlatformSim, so
 * `--jobs 1` and `--jobs N` produce bit-identical results.
 *
 * Failure model (graceful degradation): a cell whose mutator hits OOM
 * or whose replay throws is marked failed and carries a diagnostic;
 * the other cells keep running.  Benches exclude failed cells from
 * geomeans and report them in the summary.
 */

#ifndef CHARON_HARNESS_EXPERIMENT_RUNNER_HH
#define CHARON_HARNESS_EXPERIMENT_RUNNER_HH

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "harness/cell.hh"
#include "harness/trace_cache.hh"
#include "sim/timeline.hh"

namespace charon::harness
{

/** Pool shape and cache location. */
struct RunnerConfig
{
    /** Worker threads; <= 0 means std::thread::hardware_concurrency. */
    int jobs = 0;
    /** Trace cache directory; empty disables persistent caching. */
    std::string cacheDir;
    /**
     * Collect a per-cell timeline during replays (--trace-out).  When
     * false (the default) no Timeline object is ever constructed and
     * the replay path is byte-for-byte the untraced one.
     */
    bool timeline = false;
    /**
     * Crash isolation (--cell-timeout): when > 0, every cell runs
     * end-to-end in its own forked child process (harness::Supervised)
     * that is SIGKILLed once it has produced no result for this many
     * seconds.  A cell writes nothing before its result, so a hung
     * cell dies this long after it started; a cell that crashes
     * (signal, abort, sanitizer trap) takes only itself down.
     * Parallelism comes from up to `jobs` concurrent children, so the
     * parent stays single-threaded and fork-safe.  Timelines are not
     * collected in this mode.
     */
    double cellTimeoutSec = 0;
    /**
     * Extra attempts for a crashed or hung cell before it is
     * quarantined (isolated mode only).  Retries back off
     * exponentially; a quarantined cell fails with a diagnostic
     * naming the last failure while the remaining cells complete.
     */
    int cellRetries = 0;
};

/** Run @p fn(0..count-1) on up to @p jobs threads (inline when 1). */
void parallelFor(int jobs, std::size_t count,
                 const std::function<void(std::size_t)> &fn);

class ExperimentRunner
{
  public:
    explicit ExperimentRunner(RunnerConfig cfg = {});

    /** Execute every cell; results align index-for-index with cells. */
    std::vector<CellResult> run(const std::vector<Cell> &cells);

    /**
     * The functional run for @p key: in-memory memo, then trace
     * cache, then a mutator run (which populates both).  Never
     * returns null; an OOM run is a valid (partial) result with
     * run->oom set.
     */
    std::shared_ptr<const FunctionalRun> functional(FunctionalKey key);

    /** Execute the mutator for @p key (no caching; key pre-resolved). */
    static FunctionalRun executeFunctional(const FunctionalKey &key);

    /** Resolve heapBytes == 0 to the catalog default (fatal on an
     *  unknown workload — call on the main thread). */
    static FunctionalKey resolve(FunctionalKey key);

    const TraceCache &cache() const { return cache_; }
    int jobs() const { return jobs_; }

    /**
     * Liveness hook: called after every unit of runner progress — a
     * functional key recorded, a cell replayed, an isolated child
     * reaped.  The sweep supervisor's workers use it to tick their
     * heartbeat pipe, so a slow cell still counts as progress.  May
     * be invoked concurrently from pool threads; keep it
     * async-friendly (a 1-byte write(2) qualifies).
     */
    void setProgressHook(std::function<void()> hook)
    {
        onProgress_ = std::move(hook);
    }

    /**
     * Per-cell timelines collected so far, in cell-submission order
     * across every run() call (empty unless RunnerConfig::timeline).
     * Failed or replay-less cells leave a null entry so indices still
     * line up with the submitted cells.
     */
    const std::vector<std::unique_ptr<sim::Timeline>> &
    timelines() const
    {
        return timelines_;
    }

    /**
     * Write every collected timeline as one Chrome/Perfetto JSON
     * trace (one process per cell).  The merge order is the cell
     * submission order, so the bytes are independent of --jobs.
     * @retval false the file could not be written (@p error says why)
     */
    bool writeTimeline(const std::string &path,
                       std::string *error = nullptr) const;

  private:
    /** Every cell in this process, on the thread pool. */
    std::vector<CellResult> runInProcess(const std::vector<Cell> &cells);

    /** Each cell in a forked child that runs runInProcess() on it
     *  (RunnerConfig::cellTimeoutSec > 0). */
    std::vector<CellResult> runIsolated(const std::vector<Cell> &cells);

    /** Replay one cell's platform simulation into @p res. */
    void replay(const Cell &cell, CellResult &res,
                sim::Timeline *tl) const;

    int jobs_;
    bool timeline_;
    double cellTimeoutSec_;
    int cellRetries_;
    std::function<void()> onProgress_;
    TraceCache cache_;
    std::mutex memoMutex_;
    std::map<std::string, std::shared_ptr<const FunctionalRun>> memo_;
    std::vector<std::unique_ptr<sim::Timeline>> timelines_;
};

} // namespace charon::harness

#endif // CHARON_HARNESS_EXPERIMENT_RUNNER_HH
