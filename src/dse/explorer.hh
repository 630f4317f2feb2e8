/**
 * @file
 * Explorer: evaluates candidate designs through the experiment
 * harness, journal-first.
 *
 * One DsePoint costs two cells — the DDR4 host baseline and the
 * Charon platform, both replaying the point's functional trace — and
 * yields an objective vector (speedup, area, energy).  The Explorer
 * looks every cell up in the SweepJournal before touching the runner,
 * batches the misses through ExperimentRunner::run (so replays fan
 * out across --jobs while staying bit-identical at any job count),
 * and appends each fresh result to the journal in submission order.
 *
 * Screening (successive halving) reuses the same machinery with the
 * replayed trace truncated to the first K collections via
 * Cell::patchTrace: the functional trace is recorded (or cache-hit)
 * once in full, and the short replay is just a cheaper walk over its
 * prefix — a separate journal key, so screens never pollute full
 * results.
 */

#ifndef CHARON_DSE_EXPLORER_HH
#define CHARON_DSE_EXPLORER_HH

#include <cstddef>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "dse/journal.hh"
#include "dse/objective.hh"
#include "dse/param_space.hh"
#include "harness/experiment_runner.hh"

namespace charon::dse
{

/**
 * The journal's view of one cell result, keyed @p key: the only
 * conversion from a harness::CellResult to a JournalRecord, so a
 * figure rendered from records reads exactly the scalars a journal
 * keeps, whether the records came from a run or from the journal.
 */
JournalRecord toRecord(std::string key,
                       const harness::CellResult &result);

/**
 * The journal identity of one cell: resolved functional key +
 * platform + architectural-config digest + screening depth.  Two
 * cells with equal keys would replay byte-identical simulations.
 *
 * The digest covers the configuration fields the explorer's axes can
 * vary (plus a version tag).  It deliberately does not hash every
 * model constant: after an intentional timing-model change, delete
 * stale journals — they are caches, the golden tests are the guard.
 */
std::string cellKey(const harness::Cell &cell, int screenGcs);

/**
 * The cell's *canonical* journal identity: cellKey() with every knob
 * the replay provably cannot observe pruned away, so cells that
 * differ only in irrelevant timing knobs share one record.
 *
 * Pruning rules (each one is a bit-identity argument, not a
 * heuristic):
 *  - a DDR4 cell never constructs the HMC or the device, so every
 *    hmc.* and charon.* knob is dropped;
 *  - Host-HMC and Ideal cells never construct the device, so every
 *    charon.* knob is dropped;
 *  - Charon cells always keep the hmc.* knobs and the three unit
 *    counts (idle units still draw energy), but drop `maiEntries`
 *    when @p profile shows no device-eligible bucket with work,
 *    `distributedStructures` when none of {BitmapCount, Scan&Push,
 *    RefCount} can dispatch, and `scanPushLocal` when neither
 *    Scan&Push nor RefCount can (those are the only code paths that
 *    read each knob);
 *  - `cpuSide` is always dropped: PlatformSim's constructor pins it
 *    from the platform kind.
 *
 * @p profile must be the profile of the cell's *full* functional
 * trace; screening truncation only removes buckets, so pruning by
 * the full-trace profile is conservative (never shares too much) and
 * keeps the key a pure function of (cell, screenGcs).
 */
std::string canonicalCellKey(const harness::Cell &cell, int screenGcs,
                             const gc::TraceProfile &profile);

/**
 * Thrown by Explorer::runCells when SIGINT/SIGTERM arrived (after
 * SweepJournal::installSignalFlush()) before a fresh simulation
 * batch.  Every already-completed cell is journalled at that point,
 * so the driver can exit cleanly and the sweep resumes from the last
 * completed cell.
 */
struct SweepInterrupted : std::runtime_error
{
    SweepInterrupted()
        : std::runtime_error("sweep interrupted by signal")
    {
    }
};

/** One evaluated design point (screened or full). */
struct PointEval
{
    DsePoint point;
    int screenGcs = 0; ///< 0 = full run
    bool ok = false;
    bool oom = false;
    std::string error;

    JournalRecord base;   ///< DDR4 host cell
    JournalRecord charon; ///< Charon NMP cell

    double speedup = 0; ///< base GC time / Charon GC time
    double energyJ = 0; ///< Charon-platform GC energy
    double areaMm2 = 0; ///< Table 4 area of the point's unit fleet

    Objectives
    objectives() const
    {
        return Objectives{speedup, areaMm2, energyJ};
    }
};

/**
 * The harness cells (and their journal keys) that evaluating
 * @p points would run: two per point — the DDR4 host baseline first,
 * then the point's backend — in point order.  Explorer::evaluate is
 * defined in terms of this expansion; the sweep supervisor uses the
 * same expansion to partition a sweep across worker processes, so a
 * sharded sweep and an unsharded one agree cell-for-cell.
 */
struct PointCells
{
    std::vector<harness::Cell> cells;
    std::vector<std::string> keys; ///< cellKey() per cell, aligned
};
PointCells pointCells(const std::vector<DsePoint> &points,
                      int screenGcs = 0);

class Explorer
{
  public:
    Explorer(harness::ExperimentRunner &runner, SweepJournal &journal)
        : runner_(runner), journal_(journal)
    {
    }

    /**
     * Run @p cells journal-first: cells whose @p keys hit return the
     * journalled record; the misses run through the harness as one
     * batch and are appended.  Results align with @p cells.
     *
     * Primary misses get a second, incremental chance before any
     * simulation: the cell's canonical key (canonicalCellKey(), built
     * from the functional trace's TraceProfile) is looked up too, and
     * misses that collide on a canonical key — points differing only
     * in knobs this replay cannot observe — are simulated once and
     * shared.  Every record an incremental hit produces is appended
     * under the cell's *primary* key, so resumed sweeps keep hitting
     * the primary path and old journals stay valid.  @p screenGcs
     * must be the screening depth the keys were built with.  Cells
     * with custom pipelines or fault plans skip canonical sharing.
     */
    std::vector<JournalRecord>
    runCells(const std::vector<harness::Cell> &cells,
             const std::vector<std::string> &keys, int screenGcs = 0);

    /**
     * Evaluate @p points (two cells each).  @p screenGcs > 0 replays
     * only the first that-many collections of each trace — the
     * successive-halving screen.  Order follows @p points.
     */
    std::vector<PointEval> evaluate(const std::vector<DsePoint> &points,
                                    int screenGcs = 0);

    /** Cells answered from the journal so far. */
    std::size_t journalHits() const { return hits_; }
    /** Cells actually simulated so far. */
    std::size_t evaluatedCells() const { return evaluated_; }
    /**
     * Cells answered incrementally: primary-key misses resolved from
     * a canonical-key record (journalled earlier or simulated for a
     * sibling in the same batch) instead of a fresh replay.
     */
    std::size_t incrementalHits() const { return incrementalHits_; }

    harness::ExperimentRunner &runner() { return runner_; }
    SweepJournal &journal() { return journal_; }

  private:
    /** Full-trace profile for @p key, memoized per resolved key. */
    const gc::TraceProfile &profileFor(const harness::FunctionalKey &key);

    harness::ExperimentRunner &runner_;
    SweepJournal &journal_;
    std::size_t hits_ = 0;
    std::size_t evaluated_ = 0;
    std::size_t incrementalHits_ = 0;
    std::map<std::string, gc::TraceProfile> profiles_;
};

/**
 * Adaptive search: screen all @p points on @p screenGcs-collection
 * replays, keep the better half (by screened speedup; failed points
 * sort last), double the screen depth, and repeat until at most
 * @p finalists survive; those get full evaluations.  Returns the
 * finalists' full PointEvals in enumeration order.  Every screen and
 * the final runs are journalled, so a halving sweep resumes too.
 *
 * @p preEvaluate, when set, runs before each round's evaluate() with
 * that round's surviving points and screen depth (the final full
 * round passes screenGcs=0).  The sweep supervisor hooks this to farm
 * the round's cells out to worker shards and merge their journals
 * first, after which the in-process evaluate() is pure journal hits —
 * halving stays adaptive (each round's survivors depend on global
 * results) while the cell work itself is sharded.
 */
std::vector<PointEval> successiveHalving(
    Explorer &explorer, std::vector<DsePoint> points, int screenGcs,
    std::size_t finalists,
    const std::function<void(const std::vector<DsePoint> &, int)>
        &preEvaluate = {});

} // namespace charon::dse

#endif // CHARON_DSE_EXPLORER_HH
