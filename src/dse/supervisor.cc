#include "supervisor.hh"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string_view>
#include <thread>
#include <utility>

#include <unistd.h>

#include "dse/explorer.hh"
#include "harness/atomic_publish.hh"
#include "harness/supervised.hh"

namespace charon::dse
{

namespace
{

using Clock = std::chrono::steady_clock;
using harness::Supervised;

/**
 * Split a journal path into (prefix, suffix) around the canonical
 * ".dse.jsonl" extension so shard decorations nest inside it.
 */
void
splitJournalPath(const std::string &canonical, std::string &pre,
                 std::string &suf)
{
    const std::string ext = ".dse.jsonl";
    if (canonical.size() > ext.size()
        && canonical.compare(canonical.size() - ext.size(), ext.size(),
                             ext)
               == 0) {
        pre = canonical.substr(0, canonical.size() - ext.size());
        suf = ext;
    } else {
        pre = canonical;
        suf.clear();
    }
}

// ----------------------------------------------------------------------
// Worker side.  Runs in a forked child: evaluates its assigned units
// into its own shard journal and narrates progress over the pipe as
// newline-terminated ASCII messages (each well under PIPE_BUF, so
// every write is atomic even with runner threads ticking heartbeats):
//
//   H                       liveness tick (runner progress hook)
//   S <unit>                starting unit
//   D <unit> <freshCells>   unit committed (freshCells simulated)
//   F <evald> <hits> <inc>  worker finished; final explorer stats
//
// The worker never touches stdout (the render pass owns it) and
// leaves via _Exit so no inherited buffers flush twice.  Exit codes:
// 0 = all assigned units done, 130 = stopped at a unit boundary after
// SIGINT/SIGTERM, anything else = crash (supervisor classifies).

/**
 * Deterministic failure hooks for tests/CI, read from the
 * environment once per worker incarnation:
 *
 *  - CHARON_TEST_CRASH_AFTER=<n>: _Exit(42) at the first unit
 *    boundary where >= n cells have been freshly committed by this
 *    incarnation (n=0 crashes before the first unit — a pure restart
 *    churn for degradation tests);
 *  - CHARON_TEST_CRASH_AFTER_SIGKILL=<n>: same threshold, but raise
 *    SIGKILL — the crash the supervisor cannot be warned about;
 *  - CHARON_TEST_CRASH_POINT=<substr>: _Exit(42) when *starting* a
 *    unit whose first cell key contains <substr> — deterministic
 *    double-kill, the quarantine trigger;
 *  - CHARON_TEST_HANG_POINT=<substr>: sleep ~10 minutes when
 *    starting a matching unit — the watchdog trigger;
 *  - CHARON_TEST_UNIT_SLEEP_MS=<ms>: sleep after every unit, to
 *    widen drain/interrupt windows in timing tests.
 */
struct CrashHooks
{
    long crashAfter = -1;
    bool crashSignal = false;
    const char *crashPoint = nullptr;
    const char *hangPoint = nullptr;
    long unitSleepMs = 0;

    static CrashHooks
    fromEnv()
    {
        CrashHooks h;
        if (const char *v = std::getenv("CHARON_TEST_CRASH_AFTER"))
            h.crashAfter = std::atol(v);
        if (const char *v =
                std::getenv("CHARON_TEST_CRASH_AFTER_SIGKILL")) {
            h.crashAfter = std::atol(v);
            h.crashSignal = true;
        }
        if (const char *v = std::getenv("CHARON_TEST_CRASH_POINT"))
            h.crashPoint = *v ? v : nullptr;
        if (const char *v = std::getenv("CHARON_TEST_HANG_POINT"))
            h.hangPoint = *v ? v : nullptr;
        if (const char *v = std::getenv("CHARON_TEST_UNIT_SLEEP_MS"))
            h.unitSleepMs = std::atol(v);
        return h;
    }
};

[[noreturn]] void
workerMain(const std::vector<harness::Cell> &cells,
           const std::vector<std::string> &keys,
           const std::vector<std::vector<std::size_t>> &units,
           const std::deque<std::size_t> &assigned,
           const SupervisorConfig &cfg,
           const harness::RunnerConfig &runnerCfg, int shard, int pipeFd)
{
    auto say = [&](const std::string &msg) {
        harness::writeAll(pipeFd, msg.data(), msg.size());
    };

    SweepJournal journal(shardJournalPath(cfg.journalPath, shard));
    // Seed (memory-only) from the canonical journal and every sibling
    // shard file: a restarted worker, or one inheriting units from an
    // abandoned shard, then re-evaluates zero committed cells.  A
    // sibling mid-append is safe to read — O_APPEND line writes are
    // atomic and a torn tail parses as a miss.
    journal.seedFrom(cfg.journalPath);
    for (const auto &sibling : listShardJournals(cfg.journalPath)) {
        if (sibling != journal.path())
            journal.seedFrom(sibling);
    }

    harness::RunnerConfig rc = runnerCfg;
    rc.timeline = false; // a worker's timeline would die with it
    harness::ExperimentRunner runner(rc);
    runner.setProgressHook([pipeFd] {
        // Liveness tick from runner threads: 2-byte atomic write.
        (void)!::write(pipeFd, "H\n", 2);
    });
    Explorer explorer(runner, journal);
    SweepJournal::installSignalFlush();

    const auto hooks = CrashHooks::fromEnv();
    long freshCells = 0;
    auto maybeCrash = [&] {
        if (hooks.crashAfter >= 0 && freshCells >= hooks.crashAfter) {
            if (hooks.crashSignal) {
                ::raise(SIGKILL);
                std::_Exit(42); // unreachable
            }
            std::_Exit(42);
        }
    };
    maybeCrash();

    std::size_t evaluatedBefore = 0;
    for (std::size_t u : assigned) {
        if (SweepJournal::interrupted())
            std::_Exit(130);
        const auto &unit = units[u];
        const std::string &unitKey = keys[unit.front()];
        say("S " + std::to_string(u) + "\n");
        // The crash/hang points fire *after* the S message: the
        // supervisor must know which unit was inflight to strike it.
        if (hooks.crashPoint
            && unitKey.find(hooks.crashPoint) != std::string::npos)
            std::_Exit(42);
        if (hooks.hangPoint
            && unitKey.find(hooks.hangPoint) != std::string::npos)
            std::this_thread::sleep_for(std::chrono::seconds(600));

        std::vector<harness::Cell> unitCells;
        std::vector<std::string> unitKeys;
        unitCells.reserve(unit.size());
        unitKeys.reserve(unit.size());
        for (std::size_t i : unit) {
            unitCells.push_back(cells[i]);
            unitKeys.push_back(keys[i]);
        }
        try {
            explorer.runCells(unitCells, unitKeys, cfg.screenGcs);
        } catch (const SweepInterrupted &) {
            std::_Exit(130);
        } catch (const std::exception &e) {
            // A throwing unit is a worker death by contract: the
            // supervisor strikes the inflight unit and quarantines it
            // on the second offense.
            std::fprintf(stderr, "dse: shard %d: unit %zu threw: %s\n",
                         shard, u, e.what());
            std::_Exit(41);
        }
        std::size_t fresh =
            explorer.evaluatedCells() - evaluatedBefore;
        evaluatedBefore = explorer.evaluatedCells();
        say("D " + std::to_string(u) + " " + std::to_string(fresh)
            + "\n");
        if (hooks.unitSleepMs > 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(hooks.unitSleepMs));
        freshCells += static_cast<long>(fresh);
        maybeCrash();
    }
    say("F " + std::to_string(explorer.evaluatedCells()) + " "
        + std::to_string(explorer.journalHits()) + " "
        + std::to_string(explorer.incrementalHits()) + "\n");
    std::_Exit(0);
}

// ----------------------------------------------------------------------
// Supervisor side.

/** One worker slot of the current round. */
struct Slot
{
    enum State
    {
        Idle,      ///< not started yet, or backing off to a restart
        Running,
        Done,      ///< all units committed / reassigned away
        Abandoned, ///< restart budget exhausted
        Stopped,   ///< exited 130 after the interrupt fan-out
    };

    int shard = 0; ///< shard id == journal suffix
    State state = Idle;
    std::string buf;                   ///< bytes after the last newline
    std::deque<std::size_t> remaining; ///< global unit ids, in order
    long inflight = -1;                ///< unit id from last S
    int attempt = 0;                   ///< restarts consumed
    Clock::time_point restartAt;
};

} // namespace

std::string
shardJournalPath(const std::string &canonical, int shard)
{
    std::string pre, suf;
    splitJournalPath(canonical, pre, suf);
    return pre + ".shard-" + std::to_string(shard) + suf;
}

std::vector<std::string>
listShardJournals(const std::string &canonical)
{
    std::vector<std::string> out;
    if (canonical.empty())
        return out;
    // Match *filenames*, not full paths: directory_iterator spells
    // entries its own way ("./x" vs "x"), but re-joining the matched
    // name onto the canonical path's own directory prefix keeps the
    // returned strings concatenable with shardJournalPath()'s.
    const auto slash = canonical.find_last_of('/');
    const std::string dirPrefix =
        slash == std::string::npos ? std::string()
                                   : canonical.substr(0, slash + 1);
    std::string pre, suf;
    splitJournalPath(canonical.substr(dirPrefix.size()), pre, suf);
    namespace fs = std::filesystem;
    const fs::path scanDir =
        dirPrefix.empty() ? fs::path(".") : fs::path(dirPrefix);
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(scanDir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.size() <= pre.size() + suf.size())
            continue;
        if (name.compare(0, pre.size(), pre) != 0)
            continue;
        if (!suf.empty()
            && name.compare(name.size() - suf.size(), suf.size(), suf)
                   != 0)
            continue;
        std::string mid = name.substr(
            pre.size(), name.size() - pre.size() - suf.size());
        // mid must be exactly ".shard-<digits>".
        const std::string tag = ".shard-";
        if (mid.size() <= tag.size()
            || mid.compare(0, tag.size(), tag) != 0)
            continue;
        bool digits = true;
        for (std::size_t i = tag.size(); i < mid.size(); ++i)
            digits &= std::isdigit(
                          static_cast<unsigned char>(mid[i]))
                      != 0;
        if (digits)
            out.push_back(dirPrefix + name);
    }
    std::sort(out.begin(), out.end());
    return out;
}

ShardAbsorb
absorbShardJournals(const std::string &canonical, bool leftovers_only)
{
    ShardAbsorb out;
    const auto shardFiles = listShardJournals(canonical);
    out.shardFiles = shardFiles.size();
    if (leftovers_only && shardFiles.empty())
        return out;
    out.ok = SweepJournal::mergeJournals(canonical, shardFiles,
                                         &out.error, &out.merge);
    if (out.ok) {
        for (const auto &f : shardFiles)
            ::unlink(f.c_str());
    }
    return out;
}

SupervisorResult
runShardedSweep(const std::vector<harness::Cell> &cells,
                const std::vector<std::string> &keys,
                const std::vector<std::vector<std::size_t>> &units,
                const SupervisorConfig &cfg)
{
    SupervisorResult result;
    result.unitsTotal = units.size();
    if (cfg.journalPath.empty()) {
        result.error = "sharded sweep requires a journal path";
        return result;
    }
    auto info = [&](const char *fmt, auto... args) {
        if (!cfg.quiet)
            std::fprintf(stderr, fmt, args...);
    };

    SweepJournal::installSignalFlush();

    // Reboot / prior-run resume: absorb leftover shard files into the
    // canonical journal before partitioning, so precommit filtering
    // sees everything any previous incarnation committed.
    {
        auto absorbed = absorbShardJournals(cfg.journalPath,
                                            /*leftovers_only=*/true);
        if (absorbed.shardFiles > 0)
            info("dse: absorbing %zu leftover shard journal(s)\n",
                 absorbed.shardFiles);
        if (!absorbed.ok) {
            result.error = "shard journal merge failed: " + absorbed.error;
            return result;
        }
    }

    // Precommit filter: units fully answered by the canonical journal
    // never reach a worker.
    std::deque<std::size_t> pending;
    {
        SweepJournal canonical(cfg.journalPath);
        JournalRecord rec;
        for (std::size_t u = 0; u < units.size(); ++u) {
            bool covered = true;
            for (std::size_t i : units[u])
                covered &= canonical.lookup(keys[i], rec);
            if (covered)
                ++result.unitsPrecommitted;
            else
                pending.push_back(u);
        }
    }

    const int totalJobs =
        cfg.runner.jobs > 0
            ? cfg.runner.jobs
            : static_cast<int>(std::max(
                  1u, std::thread::hardware_concurrency()));

    std::set<std::size_t> committed;   // seen D for these units
    std::map<std::size_t, int> strikes; // unit -> worker kills
    std::set<std::size_t> quarantined;
    int shardsNow = std::max(1, cfg.shards);
    int nextShardId = 0;

    while (!pending.empty() && shardsNow > 0
           && !SweepJournal::interrupted()) {
        // One round: interleave the pending units over the current
        // shard count.  Unit order is the enumeration order, so the
        // partition is deterministic for any (pending, shardsNow).
        std::vector<Slot> slots(
            std::min<std::size_t>(pending.size(),
                                  static_cast<std::size_t>(shardsNow)));
        for (std::size_t s = 0; s < slots.size(); ++s) {
            slots[s].shard = nextShardId++;
            slots[s].restartAt = Clock::now();
        }
        for (std::size_t i = 0; i < pending.size(); ++i)
            slots[i % slots.size()].remaining.push_back(pending[i]);
        pending.clear();

        harness::RunnerConfig workerRunner = cfg.runner;
        workerRunner.jobs = std::max(
            1, totalJobs / static_cast<int>(slots.size()));

        // Worker processes, tagged by slot index; the pool's silence
        // watchdog is the heartbeat timeout.  Leaving the round kills
        // any worker still running (after a failed spawn), so no
        // orphan keeps writing behind the failure report.
        Supervised pool;

        auto onBytes = [&](std::size_t s, std::string_view bytes) {
            Slot &slot = slots[s];
            slot.buf.append(bytes);
            std::size_t pos;
            while ((pos = slot.buf.find('\n')) != std::string::npos) {
                std::istringstream is(slot.buf.substr(0, pos));
                slot.buf.erase(0, pos + 1);
                // 'H' and 'F' only feed the pool's silence watchdog.
                char tag = 0;
                std::size_t u = 0, fresh = 0;
                is >> tag >> u;
                if (tag == 'S' && is) {
                    slot.inflight = static_cast<long>(u);
                } else if (tag == 'D' && is >> fresh) {
                    slot.inflight = -1;
                    std::erase(slot.remaining, u);
                    if (committed.count(u)) {
                        result.reEvaluatedCells += fresh;
                    } else {
                        committed.insert(u);
                        ++result.unitsCommitted;
                    }
                }
            }
        };

        auto onExit = [&](std::size_t s, const Supervised::Exit &exit) {
            Slot &slot = slots[s];
            slot.state = Slot::Idle;
            if (exit.code == 130) {
                slot.state = Slot::Stopped;
                return;
            }
            if (exit.code != 0 && !slot.remaining.empty()) {
                ++result.workerCrashes;
                // Strike the unit that was inflight; its second
                // strike quarantines it.
                const long inflight = std::exchange(slot.inflight, -1);
                const auto u = static_cast<std::size_t>(inflight);
                if (inflight >= 0 && ++strikes[u] >= 2) {
                    const std::string &key = keys[units[u].front()];
                    quarantined.insert(u);
                    result.quarantined.push_back(u);
                    result.quarantinedKeys.push_back(key);
                    std::erase(slot.remaining, u);
                    info("dse: quarantined poison unit %zu (%s)\n", u,
                         key.c_str());
                }
            }
            if (exit.code == 0 || slot.remaining.empty()) {
                // Clean exit — or a crash *after* the last unit
                // committed (the crash-hook tail case): the shard's
                // work is done either way.
                slot.state = Slot::Done;
            } else if (slot.attempt < cfg.restartsPerShard) {
                ++slot.attempt;
                ++result.restarts;
                const double backoff = Supervised::backoffSec(
                    cfg.backoffBaseSec, slot.attempt - 1);
                slot.restartAt = Supervised::after(backoff);
                info("dse: shard %d died (%s); restart %d/%d in "
                     "%.1fs, %zu unit(s) left\n",
                     slot.shard, exit.why.c_str(), slot.attempt,
                     cfg.restartsPerShard, backoff,
                     slot.remaining.size());
            } else {
                slot.state = Slot::Abandoned;
                ++result.degradations;
                info("dse: shard %d died (%s); restart budget "
                     "exhausted, degrading — %zu unit(s) "
                     "re-partitioned\n",
                     slot.shard, exit.why.c_str(),
                     slot.remaining.size());
            }
        };

        auto live = [&] {
            return std::any_of(slots.begin(), slots.end(),
                               [](const Slot &slot) {
                                   return slot.state <= Slot::Running;
                               });
        };

        bool spawnFailed = false;
        while (live() && !SweepJournal::interrupted() && !spawnFailed) {
            // Bounded step: the signal flag is re-checked at least
            // every 200 ms, and a backing-off slot at its restart edge.
            const auto now = Clock::now();
            auto until = now + std::chrono::milliseconds(200);
            for (std::size_t s = 0; s < slots.size(); ++s) {
                Slot &slot = slots[s];
                if (slot.state != Slot::Idle)
                    continue;
                if (slot.remaining.empty()) {
                    slot.state = Slot::Done;
                } else if (slot.restartAt > now) {
                    until = std::min(until, slot.restartAt);
                } else if (pool.spawn(s, cfg.progressTimeoutSec,
                                      [&](int fd) {
                                          workerMain(cells, keys, units,
                                                     slot.remaining, cfg,
                                                     workerRunner,
                                                     slot.shard, fd);
                                      },
                                      &result.error)) {
                    slot.state = Slot::Running;
                    slot.buf.clear();
                    slot.inflight = -1;
                } else {
                    spawnFailed = true;
                }
            }
            pool.poll(until, onBytes, onExit);
        }

        if (SweepJournal::interrupted()) {
            // Interrupt fan-out: SIGTERM every live worker, give the
            // drain window for unit-boundary exits (their D messages
            // still count), then SIGKILL stragglers.
            pool.signalAll(SIGTERM);
            const auto deadline = Supervised::after(cfg.drainSec);
            while (pool.running() > 0 && Clock::now() < deadline)
                pool.poll(deadline, onBytes, nullptr);
            pool.killAll();
            result.interrupted = true;
        }

        // Collect what this round left over.
        std::size_t abandonedHere = 0;
        for (auto &slot : slots) {
            abandonedHere += slot.state == Slot::Abandoned;
            for (std::size_t u : slot.remaining)
                if (!committed.count(u) && !quarantined.count(u))
                    pending.push_back(u);
        }
        std::sort(pending.begin(), pending.end());
        pending.erase(std::unique(pending.begin(), pending.end()),
                      pending.end());
        if (result.interrupted || spawnFailed)
            break;
        if (!pending.empty()) {
            shardsNow = static_cast<int>(slots.size())
                        - static_cast<int>(abandonedHere);
            if (shardsNow > 0)
                info("dse: degrading to %d shard(s) for %zu "
                     "leftover unit(s)\n",
                     shardsNow, pending.size());
        }
    }

    // Merge every shard journal into the canonical file — also on
    // interrupt or failure, so committed cells survive for the next
    // resume and a torn shard tail never reaches a reader.
    {
        auto absorbed = absorbShardJournals(cfg.journalPath);
        result.merge = absorbed.merge;
        if (!absorbed.ok) {
            if (result.error.empty())
                result.error =
                    "shard journal merge failed: " + absorbed.error;
            return result;
        }
    }

    if (result.interrupted)
        return result;
    if (!result.error.empty())
        return result;
    if (!pending.empty()) {
        result.unfinished.assign(pending.begin(), pending.end());
        result.error =
            "all shards exhausted their restart budget with "
            + std::to_string(pending.size()) + " unit(s) unfinished";
        return result;
    }
    result.ok = true;
    return result;
}

} // namespace charon::dse
