#include "supervisor.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "dse/explorer.hh"
#include "harness/atomic_publish.hh"

namespace charon::dse
{

namespace
{

using Clock = std::chrono::steady_clock;

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
           const std::vector<std::size_t> &assigned,
           const SupervisorConfig &cfg, int shard, int pipeFd)
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

    harness::RunnerConfig rc = cfg.runner;
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
    int shard = 0; ///< shard id == journal suffix
    pid_t pid = -1;
    int fd = -1;
    std::string buf;
    std::deque<std::size_t> remaining; ///< global unit ids, in order
    long inflight = -1;                ///< unit id from last S
    int attempt = 0;                   ///< restarts consumed
    bool running = false;
    bool done = false;      ///< all units committed / reassigned away
    bool abandoned = false; ///< restart budget exhausted
    bool stopped = false;   ///< exited 130 after the interrupt fan-out
    bool timedOut = false;  ///< watchdog SIGKILL pending classify
    Clock::time_point lastProgress;
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
        auto leftovers = listShardJournals(cfg.journalPath);
        if (!leftovers.empty()) {
            info("dse: absorbing %zu leftover shard journal(s)\n",
                 leftovers.size());
            std::string err;
            if (!SweepJournal::mergeJournals(cfg.journalPath, leftovers,
                                             &err)) {
                result.error = "shard journal merge failed: " + err;
                return result;
            }
            for (const auto &f : leftovers)
                ::unlink(f.c_str());
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

    const auto progressTimeout =
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(cfg.progressTimeoutSec));

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

        auto spawn = [&](Slot &slot) {
            int fds[2];
            if (::pipe(fds) != 0) {
                result.error = "pipe() failed";
                return false;
            }
            std::vector<std::size_t> assigned(slot.remaining.begin(),
                                              slot.remaining.end());
            SupervisorConfig workerCfg = cfg;
            workerCfg.runner = workerRunner;
            pid_t pid = ::fork();
            if (pid < 0) {
                ::close(fds[0]);
                ::close(fds[1]);
                result.error = "fork() failed";
                return false;
            }
            if (pid == 0) {
                ::close(fds[0]);
                workerMain(cells, keys, units, assigned, workerCfg,
                           slot.shard, fds[1]);
            }
            ::close(fds[1]);
            slot.pid = pid;
            slot.fd = fds[0];
            slot.buf.clear();
            slot.inflight = -1;
            slot.running = true;
            slot.timedOut = false;
            slot.lastProgress = Clock::now();
            return true;
        };

        auto strikeInflight = [&](Slot &slot) {
            if (slot.inflight < 0)
                return;
            auto u = static_cast<std::size_t>(slot.inflight);
            slot.inflight = -1;
            if (++strikes[u] < 2)
                return;
            quarantined.insert(u);
            result.quarantined.push_back(u);
            result.quarantinedKeys.push_back(keys[units[u].front()]);
            auto it = std::find(slot.remaining.begin(),
                                slot.remaining.end(), u);
            if (it != slot.remaining.end())
                slot.remaining.erase(it);
            info("dse: quarantined poison unit %zu (%s)\n", u,
                 keys[units[u].front()].c_str());
        };

        auto handleMessage = [&](Slot &slot, const std::string &msg) {
            slot.lastProgress = Clock::now();
            if (msg.empty())
                return;
            std::istringstream is(msg);
            char tag = 0;
            is >> tag;
            if (tag == 'S') {
                std::size_t u = 0;
                if (is >> u)
                    slot.inflight = static_cast<long>(u);
            } else if (tag == 'D') {
                std::size_t u = 0, fresh = 0;
                if (!(is >> u >> fresh))
                    return;
                slot.inflight = -1;
                auto it = std::find(slot.remaining.begin(),
                                    slot.remaining.end(), u);
                if (it != slot.remaining.end())
                    slot.remaining.erase(it);
                if (committed.count(u)) {
                    result.reEvaluatedCells += fresh;
                } else {
                    committed.insert(u);
                    ++result.unitsCommitted;
                }
            }
            // 'H' and 'F' only refresh lastProgress.
        };

        auto classifyExit = [&](Slot &slot, int status) {
            slot.running = false;
            slot.fd = -1;
            slot.pid = -1;
            bool crashed;
            std::string why;
            if (slot.timedOut) {
                crashed = true;
                why = "no progress for "
                      + std::to_string(cfg.progressTimeoutSec)
                      + "s (watchdog)";
            } else if (WIFSIGNALED(status)) {
                crashed = true;
                why = std::string("signal ")
                      + std::to_string(WTERMSIG(status));
            } else if (WIFEXITED(status)
                       && WEXITSTATUS(status) == 130) {
                slot.stopped = true;
                return;
            } else if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
                crashed = true;
                why = "exit status "
                      + std::to_string(WEXITSTATUS(status));
            } else {
                crashed = false;
            }
            if (!crashed || slot.remaining.empty()) {
                // Clean exit — or a crash *after* the last unit
                // committed (the crash-hook tail case): the shard's
                // work is done either way.
                slot.done = true;
                return;
            }
            ++result.workerCrashes;
            strikeInflight(slot);
            if (slot.remaining.empty()) {
                slot.done = true;
                return;
            }
            if (slot.attempt < cfg.restartsPerShard) {
                ++slot.attempt;
                ++result.restarts;
                double backoff =
                    cfg.backoffBaseSec
                    * static_cast<double>(1 << std::min(
                          slot.attempt - 1, 6));
                slot.restartAt =
                    Clock::now()
                    + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(backoff));
                info("dse: shard %d died (%s); restart %d/%d in "
                     "%.1fs, %zu unit(s) left\n",
                     slot.shard, why.c_str(), slot.attempt,
                     cfg.restartsPerShard, backoff,
                     slot.remaining.size());
            } else {
                slot.abandoned = true;
                ++result.degradations;
                info("dse: shard %d died (%s); restart budget "
                     "exhausted, degrading — %zu unit(s) "
                     "re-partitioned\n",
                     slot.shard, why.c_str(), slot.remaining.size());
            }
        };

        auto liveCount = [&] {
            std::size_t n = 0;
            for (const auto &s : slots)
                n += !s.done && !s.abandoned && !s.stopped;
            return n;
        };

        bool spawnFailed = false;
        while (liveCount() > 0 && !SweepJournal::interrupted()
               && !spawnFailed) {
            const auto now = Clock::now();
            for (auto &slot : slots) {
                if (slot.running || slot.done || slot.abandoned
                    || slot.stopped)
                    continue;
                if (slot.remaining.empty()) {
                    slot.done = true;
                    continue;
                }
                if (slot.restartAt <= now && !spawn(slot))
                    spawnFailed = true;
            }

            std::vector<pollfd> fds;
            std::vector<Slot *> fdOwner;
            for (auto &slot : slots) {
                if (slot.running) {
                    fds.push_back(pollfd{slot.fd, POLLIN, 0});
                    fdOwner.push_back(&slot);
                }
            }
            if (fds.empty()) {
                // Every live slot is backing off: nap to the nearest
                // restart edge (capped so interrupts stay responsive).
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
                continue;
            }
            // Bounded poll slice: signal flag and watchdog both get
            // re-checked at least once a second.
            ::poll(fds.data(), fds.size(), 200);

            if (cfg.progressTimeoutSec > 0) {
                for (auto &slot : slots) {
                    if (slot.running && !slot.timedOut
                        && Clock::now() - slot.lastProgress
                               > progressTimeout) {
                        slot.timedOut = true;
                        ::kill(slot.pid, SIGKILL);
                    }
                }
            }

            for (std::size_t k = 0; k < fds.size(); ++k) {
                Slot &slot = *fdOwner[k];
                if (!(fds[k].revents & (POLLIN | POLLHUP | POLLERR))
                    && !slot.timedOut)
                    continue;
                char chunk[4096];
                ssize_t n = ::read(slot.fd, chunk, sizeof(chunk));
                if (n > 0) {
                    slot.buf.append(chunk,
                                    static_cast<std::size_t>(n));
                    std::size_t pos;
                    while ((pos = slot.buf.find('\n'))
                           != std::string::npos) {
                        handleMessage(slot, slot.buf.substr(0, pos));
                        slot.buf.erase(0, pos + 1);
                    }
                    continue;
                }
                if (n < 0 && (errno == EINTR || errno == EAGAIN))
                    continue;
                // EOF: reap and classify.
                ::close(slot.fd);
                int status = 0;
                pid_t pid = slot.pid;
                while (::waitpid(pid, &status, 0) < 0
                       && errno == EINTR) {
                }
                classifyExit(slot, status);
            }
        }

        // Interrupt fan-out: SIGTERM every live worker, give the
        // drain window for unit-boundary exits (their D messages
        // still count), then SIGKILL stragglers.
        if (SweepJournal::interrupted()) {
            for (auto &slot : slots)
                if (slot.running)
                    ::kill(slot.pid, SIGTERM);
            const auto deadline =
                Clock::now()
                + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(cfg.drainSec));
            auto anyRunning = [&] {
                for (const auto &s : slots)
                    if (s.running)
                        return true;
                return false;
            };
            while (anyRunning() && Clock::now() < deadline) {
                std::vector<pollfd> fds;
                std::vector<Slot *> fdOwner;
                for (auto &slot : slots) {
                    if (slot.running) {
                        fds.push_back(pollfd{slot.fd, POLLIN, 0});
                        fdOwner.push_back(&slot);
                    }
                }
                ::poll(fds.data(), fds.size(), 100);
                for (std::size_t k = 0; k < fds.size(); ++k) {
                    Slot &slot = *fdOwner[k];
                    if (!(fds[k].revents
                          & (POLLIN | POLLHUP | POLLERR)))
                        continue;
                    char chunk[4096];
                    ssize_t n =
                        ::read(slot.fd, chunk, sizeof(chunk));
                    if (n > 0) {
                        slot.buf.append(
                            chunk, static_cast<std::size_t>(n));
                        std::size_t pos;
                        while ((pos = slot.buf.find('\n'))
                               != std::string::npos) {
                            handleMessage(slot,
                                          slot.buf.substr(0, pos));
                            slot.buf.erase(0, pos + 1);
                        }
                        continue;
                    }
                    if (n < 0
                        && (errno == EINTR || errno == EAGAIN))
                        continue;
                    ::close(slot.fd);
                    int status = 0;
                    while (::waitpid(slot.pid, &status, 0) < 0
                           && errno == EINTR) {
                    }
                    slot.running = false;
                    slot.stopped = true;
                    slot.pid = -1;
                    slot.fd = -1;
                }
            }
            for (auto &slot : slots) {
                if (!slot.running)
                    continue;
                ::kill(slot.pid, SIGKILL);
                ::close(slot.fd);
                int status = 0;
                while (::waitpid(slot.pid, &status, 0) < 0
                       && errno == EINTR) {
                }
                slot.running = false;
                slot.stopped = true;
            }
            result.interrupted = true;
        }

        if (spawnFailed) {
            // fork/pipe exhaustion: stop the round's survivors so no
            // orphan keeps writing behind the failure report.
            for (auto &slot : slots) {
                if (!slot.running)
                    continue;
                ::kill(slot.pid, SIGKILL);
                ::close(slot.fd);
                int status = 0;
                while (::waitpid(slot.pid, &status, 0) < 0
                       && errno == EINTR) {
                }
                slot.running = false;
            }
        }

        // Collect what this round left over.
        std::size_t abandonedHere = 0;
        for (auto &slot : slots) {
            abandonedHere += slot.abandoned ? 1 : 0;
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
        auto shardFiles = listShardJournals(cfg.journalPath);
        std::string err;
        if (!SweepJournal::mergeJournals(cfg.journalPath, shardFiles,
                                         &err, &result.merge)) {
            if (result.error.empty())
                result.error = "shard journal merge failed: " + err;
            return result;
        }
        for (const auto &f : shardFiles)
            ::unlink(f.c_str());
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
