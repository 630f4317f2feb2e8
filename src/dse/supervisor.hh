/**
 * @file
 * Sweep supervisor: fault-tolerant multi-process sharding of a DSE
 * sweep.
 *
 * `runShardedSweep` forks N worker processes on the shared
 * harness::Supervised pool, each evaluating a deterministic
 * interleaved partition of the sweep's *units* (a unit is the group
 * of cells that one worker must evaluate together — the two cells of
 * one DsePoint, or one preset cell) into its own per-shard journal
 * (`<journal>.shard-K.dse.jsonl`).  The supervisor is the policy
 * around those workers:
 *
 *  - a heartbeat watchdog: workers tick over their pipe on every cell
 *    of runner progress, and the pool SIGKILLs a shard silent past
 *    the timeout, which then counts as crashed;
 *  - exponential-backoff restart of dead workers, which resume from
 *    their own shard journal and so re-evaluate zero committed cells;
 *  - poison-point quarantine: a unit whose evaluation kills a worker
 *    twice is excluded (reported by key) and the sweep continues;
 *  - graceful degradation: a shard that exhausts its restart budget
 *    is abandoned, and its unfinished units are re-partitioned over
 *    one fewer shard in the next round;
 *  - SIGINT/SIGTERM fan-out with a bounded drain window, preserving
 *    the journal resume contract under shard fan-out.
 *
 * On completion (or on the next start after a host reboot — leftover
 * shard files are absorbed first) the shard journals are merged into
 * the canonical journal with SweepJournal::mergeJournals: torn tails
 * repaired, duplicate keys deduplicated first-writer-wins, published
 * fsync-before-rename.  Because every replay is deterministic, the
 * merged sweep renders byte-identically to an unsharded run.
 */

#ifndef CHARON_DSE_SUPERVISOR_HH
#define CHARON_DSE_SUPERVISOR_HH

#include <cstddef>
#include <string>
#include <vector>

#include "dse/journal.hh"
#include "harness/cell.hh"
#include "harness/experiment_runner.hh"

namespace charon::dse
{

struct SupervisorConfig
{
    /** Worker processes to fork (>= 1). */
    int shards = 2;
    /** Restarts each shard may consume per round before it is
     *  abandoned and the sweep degrades to fewer shards. */
    int restartsPerShard = 2;
    /** Watchdog: SIGKILL a shard with no heartbeat/progress message
     *  for this long.  0 disables the watchdog. */
    double progressTimeoutSec = 120;
    /** Drain window after SIGINT/SIGTERM fan-out: workers get this
     *  long to stop at a unit boundary before SIGKILL. */
    double drainSec = 5;
    /** First restart backoff; doubles per consumed restart. */
    double backoffBaseSec = 0.1;
    /** Canonical journal path (must be non-empty: sharding without a
     *  journal would have nowhere to commit results). */
    std::string journalPath;
    /** Worker runner shape.  `jobs` is the *total* budget: each
     *  worker runs with max(1, jobs / shards) threads. */
    harness::RunnerConfig runner;
    /** Screening depth the unit keys were built with (0 = full). */
    int screenGcs = 0;
    /** Suppress the supervisor's stderr progress narration. */
    bool quiet = false;
};

struct SupervisorResult
{
    /** Every unit committed or quarantined (and the merge succeeded):
     *  the sweep can be rendered from the canonical journal. */
    bool ok = false;
    /** SIGINT/SIGTERM stopped the sweep; committed work is merged and
     *  a re-run resumes with zero re-evaluated cells. */
    bool interrupted = false;
    std::string error; ///< diagnostic when !ok && !interrupted

    std::size_t unitsTotal = 0;
    /** Units fully answered by the canonical journal before any
     *  worker was forked (the resume path). */
    std::size_t unitsPrecommitted = 0;
    /** Units committed by workers during this run. */
    std::size_t unitsCommitted = 0;
    std::size_t restarts = 0;      ///< worker restarts consumed
    std::size_t workerCrashes = 0; ///< crashes + watchdog kills
    std::size_t degradations = 0;  ///< shards abandoned
    /** Cells freshly simulated for units the supervisor had already
     *  seen committed — the invariant says this stays 0. */
    std::size_t reEvaluatedCells = 0;

    /** Units quarantined after killing a worker twice, and the
     *  journal key of each unit's first cell for reporting. */
    std::vector<std::size_t> quarantined;
    std::vector<std::string> quarantinedKeys;
    /** Units left unevaluated when every shard was abandoned. */
    std::vector<std::size_t> unfinished;

    SweepJournal::MergeStats merge; ///< final canonical merge
};

/**
 * Evaluate @p units — each a group of indices into @p cells /
 * @p keys — across cfg.shards supervised worker processes.  Blocks
 * until the sweep completes, degrades to failure, or is interrupted;
 * in every case committed shard results are merged into
 * cfg.journalPath before returning.  Quarantined units are *not*
 * written to the journal: a later resume retries them.
 *
 * Installs SweepJournal::installSignalFlush (the same handler the
 * unsharded sweep uses), so Ctrl-C stops the fleet at unit
 * boundaries with everything committed so far already journalled.
 */
SupervisorResult
runShardedSweep(const std::vector<harness::Cell> &cells,
                const std::vector<std::string> &keys,
                const std::vector<std::vector<std::size_t>> &units,
                const SupervisorConfig &cfg);

/**
 * The per-shard journal path: inserts ".shard-K" before the
 * ".dse.jsonl" suffix ("smoke.dse.jsonl" -> "smoke.shard-2.dse.jsonl";
 * a path without the suffix gets ".shard-K" appended).
 */
std::string shardJournalPath(const std::string &canonical, int shard);

/**
 * Existing shard journals of @p canonical, sorted by path — leftover
 * files from an interrupted or rebooted run that the supervisor (or
 * `charon-explore --merge-shards`) absorbs into the canonical file.
 */
std::vector<std::string>
listShardJournals(const std::string &canonical);

} // namespace charon::dse

#endif // CHARON_DSE_SUPERVISOR_HH
