#include "experiment_runner.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <fstream>
#include <sstream>
#include <thread>

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "gc/trace_io.hh"
#include "harness/atomic_publish.hh"
#include "platform/platform_sim.hh"
#include "sim/logging.hh"
#include "workload/g1_mutator.hh"
#include "workload/mutator.hh"

namespace charon::harness
{

const char *
collectorKindName(CollectorKind kind)
{
    switch (kind) {
      case CollectorKind::ParallelScavenge: return "ParallelScavenge";
      case CollectorKind::G1:               return "G1";
      case CollectorKind::Cms:              return "CMS";
      case CollectorKind::Rc:               return "RC";
    }
    return "?";
}

const char *
collectorKindToken(CollectorKind kind)
{
    switch (kind) {
      case CollectorKind::ParallelScavenge: return "ps";
      case CollectorKind::G1:               return "g1";
      case CollectorKind::Cms:              return "cms";
      case CollectorKind::Rc:               return "rc";
    }
    return "?";
}

std::string
FunctionalKey::str() const
{
    std::ostringstream os;
    os << workload << '/' << collectorKindToken(collector) << "/h"
       << heapBytes << "/s" << seed << "/t" << gcThreads << "/c"
       << numCubes << "/ct" << copyOffloadThreshold;
    return os.str();
}

void
parallelFor(int jobs, std::size_t count,
            const std::function<void(std::size_t)> &fn)
{
    if (count == 0)
        return;
    if (jobs > static_cast<int>(count))
        jobs = static_cast<int>(count);
    if (jobs <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (;;) {
            std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                return;
            fn(i);
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(jobs));
    for (int t = 0; t < jobs; ++t)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();
}

ExperimentRunner::ExperimentRunner(RunnerConfig cfg)
    : jobs_(cfg.jobs), timeline_(cfg.timeline),
      cellTimeoutSec_(cfg.cellTimeoutSec), cellRetries_(cfg.cellRetries),
      cache_(cfg.cacheDir)
{
    if (jobs_ <= 0) {
        unsigned hw = std::thread::hardware_concurrency();
        jobs_ = hw ? static_cast<int>(hw) : 1;
    }
}

FunctionalKey
ExperimentRunner::resolve(FunctionalKey key)
{
    if (key.heapBytes == 0)
        key.heapBytes = workload::findWorkload(key.workload).heapBytes;
    return key;
}

FunctionalRun
ExperimentRunner::executeFunctional(const FunctionalKey &key)
{
    const auto &params = workload::findWorkload(key.workload);
    FunctionalRun out;
    if (key.collector == CollectorKind::G1) {
        workload::G1Mutator mut(params, key.heapBytes, key.seed,
                                key.gcThreads, key.numCubes);
        mut.recorder().setCopyOffloadThreshold(key.copyOffloadThreshold);
        auto r = mut.run();
        out.trace = mut.recorder().run();
        out.cubeShift = mut.cubeShift();
        out.oom = r.oom;
        out.gcsMinor = r.youngGcs;
        out.gcsMajor = r.mixedGcs;
        out.markCycles = r.markCycles;
        out.allocatedBytes = r.allocatedBytes;
        out.mutatorInstructions = r.mutatorInstructions;
    } else {
        gc::CollectorModel model = gc::CollectorModel::ParallelScavenge;
        if (key.collector == CollectorKind::Cms)
            model = gc::CollectorModel::Cms;
        else if (key.collector == CollectorKind::Rc)
            model = gc::CollectorModel::Rc;
        workload::Mutator mut(params, key.heapBytes, key.seed,
                              key.gcThreads, key.numCubes, model);
        mut.recorder().setCopyOffloadThreshold(key.copyOffloadThreshold);
        auto r = mut.run();
        out.trace = mut.recorder().run();
        out.cubeShift = mut.cubeShift();
        out.oom = r.oom;
        out.gcsMinor = r.minorGcs;
        out.gcsMajor = r.majorGcs;
        out.allocatedBytes = r.allocatedBytes;
        out.mutatorInstructions = r.mutatorInstructions;
    }
    return out;
}

std::shared_ptr<const FunctionalRun>
ExperimentRunner::functional(FunctionalKey key)
{
    key = resolve(key);
    const std::string id = key.str();
    {
        std::lock_guard<std::mutex> lock(memoMutex_);
        auto it = memo_.find(id);
        if (it != memo_.end())
            return it->second;
    }
    auto run = std::make_shared<FunctionalRun>();
    if (!cache_.load(key, *run)) {
        *run = executeFunctional(key);
        cache_.store(key, *run);
    }
    std::lock_guard<std::mutex> lock(memoMutex_);
    // Another thread may have raced us here; first insert wins so all
    // cells of one key observe the same object.
    auto [it, inserted] = memo_.emplace(id, run);
    return it->second;
}

void
ExperimentRunner::replay(const Cell &cell, CellResult &res,
                         sim::Timeline *tl) const
{
    platform::PlatformSim sim(cell.platform, cell.config,
                              res.run->cubeShift,
                              sim::Instrumentation(tl), cell.faults);
    if (cell.patchTrace) {
        gc::RunTrace patched = res.run->trace;
        cell.patchTrace(patched);
        res.timing = sim.simulate(patched);
    } else {
        res.timing = sim.simulate(res.run->trace);
    }
    res.ok = true;
}

std::vector<CellResult>
ExperimentRunner::run(const std::vector<Cell> &cells)
{
    if (cellTimeoutSec_ > 0)
        return runIsolated(cells);

    std::vector<CellResult> results(cells.size());

    // Resolve keys on the main thread: findWorkload() is fatal() on a
    // typo and must not fire inside a worker.
    std::vector<FunctionalKey> keys(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (!cells[i].customRun)
            keys[i] = resolve(cells[i].key);
    }

    // Phase 1: every distinct functional key exactly once, in
    // parallel.  Custom cells are their own single-shot jobs.
    std::vector<std::size_t> key_owner; // cell index introducing a key
    {
        std::map<std::string, bool> seen;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (cells[i].customRun) {
                key_owner.push_back(i);
                continue;
            }
            if (!seen.emplace(keys[i].str(), true).second)
                continue;
            key_owner.push_back(i);
        }
    }
    std::mutex custom_mutex;
    std::map<std::size_t, std::shared_ptr<const FunctionalRun>> custom;
    std::map<std::size_t, std::string> custom_error;
    // Functional failures by key, so phase 2 can attribute the error
    // to *every* cell sharing the key instead of silently re-running
    // the broken mutator once per cell.
    std::map<std::string, std::string> key_error;
    parallelFor(jobs_, key_owner.size(), [&](std::size_t j) {
        std::size_t i = key_owner[j];
        try {
            if (cells[i].customRun) {
                auto run = std::make_shared<FunctionalRun>(
                    cells[i].customRun());
                std::lock_guard<std::mutex> lock(custom_mutex);
                custom[i] = std::move(run);
            } else {
                functional(keys[i]);
            }
        } catch (const std::exception &e) {
            std::lock_guard<std::mutex> lock(custom_mutex);
            if (cells[i].customRun)
                custom_error[i] = e.what();
            else
                key_error[keys[i].str()] = e.what();
        }
        if (onProgress_)
            onProgress_();
    });

    // Phase 2: replay every cell on the pool; a private PlatformSim
    // per cell keeps the event-driven simulation deterministic.  Each
    // worker fills a pre-sized timeline slot for the cells it owns, so
    // the merged trace order (and bytes) is independent of --jobs.
    std::vector<std::unique_ptr<sim::Timeline>> tls(
        timeline_ ? cells.size() : 0);
    parallelFor(jobs_, cells.size(), [&](std::size_t i) {
        const Cell &cell = cells[i];
        CellResult &res = results[i];
        // Inner lambda so the early returns (functional failure, OOM,
        // replay-less cells) still reach the progress tick below.
        [&] {
        try {
            if (cell.customRun) {
                auto it = custom.find(i);
                if (it == custom.end()) {
                    res.error = "functional run failed: "
                                + (custom_error.count(i)
                                       ? custom_error[i]
                                       : std::string("unknown error"));
                    return;
                }
                res.run = it->second;
            } else {
                auto ke = key_error.find(keys[i].str());
                if (ke != key_error.end()) {
                    res.error =
                        "functional run failed: " + ke->second;
                    return;
                }
                res.run = functional(keys[i]);
            }
            res.oom = res.run->oom;
            if (res.oom) {
                std::ostringstream os;
                os << "OOM at "
                   << (keys[i].heapBytes >> 20) << " MiB";
                res.error = os.str();
                return; // failed cell: no replay, no geomean entry
            }
            if (!cell.replay) {
                res.ok = true;
                return;
            }
            sim::Timeline *tl = nullptr;
            if (timeline_) {
                std::string label = cell.label;
                if (label.empty()) {
                    label = keys[i].str() + " on "
                            + sim::platformName(cell.platform);
                }
                tls[i] = std::make_unique<sim::Timeline>(
                    std::move(label));
                tl = tls[i].get();
            }
            replay(cell, res, tl);
        } catch (const std::exception &e) {
            res.ok = false;
            res.error = e.what();
        }
        }();
        if (onProgress_)
            onProgress_();
    });
    for (auto &tl : tls)
        timelines_.push_back(std::move(tl));
    return results;
}

namespace
{

// ----------------------------------------------------------------------
// CellResult wire format for the crash-isolated runner: the child
// process serializes its result over a pipe with the trace_io
// little-endian framing; a short or missing payload marks the child
// as crashed.

void
putBreakdown(std::ostream &os, const platform::PrimBreakdown &b)
{
    using namespace gc::io;
    putF64(os, b.copy);
    putF64(os, b.search);
    putF64(os, b.scanPush);
    putF64(os, b.bitmapCount);
    putF64(os, b.bitSweep);
    putF64(os, b.refCount);
    putF64(os, b.glue);
}

bool
getBreakdown(std::istream &is, platform::PrimBreakdown &b)
{
    using namespace gc::io;
    return getF64(is, b.copy) && getF64(is, b.search)
           && getF64(is, b.scanPush) && getF64(is, b.bitmapCount)
           && getF64(is, b.bitSweep) && getF64(is, b.refCount)
           && getF64(is, b.glue);
}

void
putTiming(std::ostream &os, const platform::RunTiming &t)
{
    using namespace gc::io;
    putU64(os, static_cast<std::uint64_t>(t.platform));
    putF64(os, t.gcSeconds);
    putF64(os, t.minorSeconds);
    putF64(os, t.majorSeconds);
    putF64(os, t.mutatorSeconds);
    putF64(os, t.dramBytes);
    putF64(os, t.avgGcBandwidthGBs);
    putF64(os, t.localAccessFraction);
    putF64(os, t.hostEnergyJ);
    putF64(os, t.dramEnergyJ);
    putF64(os, t.unitEnergyJ);
    putBreakdown(os, t.minorBreakdown);
    putBreakdown(os, t.majorBreakdown);
    putU64(os, t.gcs.size());
    for (const auto &gc : t.gcs) {
        putU64(os, gc.major ? 1 : 0);
        putF64(os, gc.seconds);
        putBreakdown(os, gc.breakdown);
        putU64(os, gc.rollup.phases.size());
        for (const auto &phase : gc.rollup.phases) {
            putU64(os, static_cast<std::uint64_t>(phase.kind));
            putF64(os, phase.wallSeconds);
            for (const auto &prim : phase.prims) {
                putF64(os, prim.seconds);
                putU64(os, prim.bytes);
                putU64(os, prim.invocations);
            }
            putF64(os, phase.glueSeconds);
        }
    }
}

bool
getTiming(std::istream &is, platform::RunTiming &t)
{
    using namespace gc::io;
    std::uint64_t platform, gcs;
    if (!getU64(is, platform) || !getF64(is, t.gcSeconds)
        || !getF64(is, t.minorSeconds) || !getF64(is, t.majorSeconds)
        || !getF64(is, t.mutatorSeconds) || !getF64(is, t.dramBytes)
        || !getF64(is, t.avgGcBandwidthGBs)
        || !getF64(is, t.localAccessFraction)
        || !getF64(is, t.hostEnergyJ) || !getF64(is, t.dramEnergyJ)
        || !getF64(is, t.unitEnergyJ)
        || !getBreakdown(is, t.minorBreakdown)
        || !getBreakdown(is, t.majorBreakdown) || !getU64(is, gcs)) {
        return false;
    }
    t.platform = static_cast<sim::PlatformKind>(platform);
    t.gcs.resize(gcs);
    for (auto &gc : t.gcs) {
        std::uint64_t major, phases;
        if (!getU64(is, major) || !getF64(is, gc.seconds)
            || !getBreakdown(is, gc.breakdown) || !getU64(is, phases)) {
            return false;
        }
        gc.major = major != 0;
        gc.rollup.major = gc.major;
        gc.rollup.phases.resize(phases);
        for (auto &phase : gc.rollup.phases) {
            std::uint64_t kind;
            if (!getU64(is, kind) || !getF64(is, phase.wallSeconds))
                return false;
            phase.kind = static_cast<gc::PhaseKind>(kind);
            for (auto &prim : phase.prims) {
                if (!getF64(is, prim.seconds)
                    || !getU64(is, prim.bytes)
                    || !getU64(is, prim.invocations)) {
                    return false;
                }
            }
            if (!getF64(is, phase.glueSeconds))
                return false;
        }
    }
    return true;
}

void
putCellResult(std::ostream &os, const CellResult &res)
{
    using namespace gc::io;
    putU64(os, res.ok ? 1 : 0);
    putU64(os, res.oom ? 1 : 0);
    putString(os, res.error);
    putU64(os, res.run ? 1 : 0);
    if (res.run) {
        const FunctionalRun &r = *res.run;
        putU64(os, static_cast<std::uint64_t>(r.cubeShift));
        putU64(os, r.oom ? 1 : 0);
        putU64(os, r.gcsMinor);
        putU64(os, r.gcsMajor);
        putU64(os, r.markCycles);
        putU64(os, r.allocatedBytes);
        putU64(os, r.mutatorInstructions);
        gc::writeTrace(os, r.trace);
    }
    putTiming(os, res.timing);
}

bool
getCellResult(std::istream &is, CellResult &res)
{
    using namespace gc::io;
    std::uint64_t ok, oom, has_run;
    if (!getU64(is, ok) || !getU64(is, oom)
        || !getString(is, res.error) || !getU64(is, has_run)) {
        return false;
    }
    res.ok = ok != 0;
    res.oom = oom != 0;
    if (has_run) {
        auto run = std::make_shared<FunctionalRun>();
        std::uint64_t cube_shift, run_oom;
        if (!getU64(is, cube_shift) || !getU64(is, run_oom)
            || !getU64(is, run->gcsMinor) || !getU64(is, run->gcsMajor)
            || !getU64(is, run->markCycles)
            || !getU64(is, run->allocatedBytes)
            || !getU64(is, run->mutatorInstructions)) {
            return false;
        }
        run->cubeShift = static_cast<int>(cube_shift);
        run->oom = run_oom != 0;
        std::string error;
        if (!gc::readTrace(is, run->trace, &error))
            return false;
        res.run = std::move(run);
    }
    return getTiming(is, res.timing);
}

} // namespace

std::vector<CellResult>
ExperimentRunner::runIsolated(const std::vector<Cell> &cells)
{
    using Clock = std::chrono::steady_clock;

    std::vector<CellResult> results(cells.size());
    if (timeline_) {
        sim::warn("timelines are not collected in crash-isolated mode "
                  "(--cell-timeout)");
    }

    // Resolve keys on the main thread (findWorkload is fatal on a
    // typo, which must not look like a cell crash).
    std::vector<FunctionalKey> keys(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (!cells[i].customRun)
            keys[i] = resolve(cells[i].key);
    }

    const auto timeout = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(cellTimeoutSec_));

    struct Pending
    {
        std::size_t cell;
        int attempt;
        Clock::time_point notBefore;
    };
    struct Child
    {
        pid_t pid;
        int fd;
        std::size_t cell;
        int attempt;
        std::string buf;
        Clock::time_point deadline;
        bool timedOut = false;
    };

    std::deque<Pending> queue;
    for (std::size_t i = 0; i < cells.size(); ++i)
        queue.push_back(Pending{i, 0, Clock::now()});
    std::vector<Child> active;

    auto runChild = [&](std::size_t i) {
        // In the child: do the cell end-to-end, ship the result,
        // and _Exit without running atexit handlers.  Any escape —
        // crash, hang, sanitizer abort, exception past this frame —
        // is classified by the parent from the wait status.
        CellResult res;
        try {
            if (cells[i].customRun) {
                res.run = std::make_shared<FunctionalRun>(
                    cells[i].customRun());
            } else {
                res.run = functional(keys[i]);
            }
            res.oom = res.run->oom;
            if (res.oom) {
                res.error = sim::format(
                    "OOM at %llu MiB",
                    static_cast<unsigned long long>(
                        keys[i].heapBytes >> 20));
            } else if (!cells[i].replay) {
                res.ok = true;
            } else {
                replay(cells[i], res, nullptr);
            }
        } catch (const std::exception &e) {
            res.ok = false;
            res.error = e.what();
        }
        std::ostringstream os;
        putCellResult(os, res);
        return os.str();
    };

    auto spawn = [&](const Pending &p) {
        int fds[2];
        if (::pipe(fds) != 0)
            sim::fatal("isolated runner: pipe() failed");
        pid_t pid = ::fork();
        if (pid < 0)
            sim::fatal("isolated runner: fork() failed");
        if (pid == 0) {
            ::close(fds[0]);
            const std::string payload = runChild(p.cell);
            writeAll(fds[1], payload.data(), payload.size());
            ::close(fds[1]);
            std::_Exit(0);
        }
        ::close(fds[1]);
        active.push_back(Child{pid, fds[0], p.cell, p.attempt, {},
                               Clock::now() + timeout});
    };

    auto classify = [&](Child &c, int status) {
        CellResult res;
        std::string why;
        if (c.timedOut) {
            why = sim::format("timed out after %.1fs", cellTimeoutSec_);
        } else if (WIFSIGNALED(status)) {
            why = sim::format("killed by signal %d (%s)",
                              WTERMSIG(status),
                              strsignal(WTERMSIG(status)));
        } else if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
            why = sim::format("exited with status %d",
                              WEXITSTATUS(status));
        } else {
            std::istringstream is(c.buf);
            if (getCellResult(is, res)) {
                results[c.cell] = std::move(res);
                return;
            }
            why = "truncated result payload (crashed mid-write?)";
        }
        if (c.attempt < cellRetries_) {
            // Exponential backoff before the retry: transient trouble
            // (resource pressure) gets room to clear; deterministic
            // crashes burn through quickly and quarantine.
            auto backoff = std::chrono::milliseconds(100)
                           * (1 << std::min(c.attempt, 6));
            queue.push_back(
                Pending{c.cell, c.attempt + 1, Clock::now() + backoff});
            return;
        }
        results[c.cell].ok = false;
        results[c.cell].error = sim::format(
            "quarantined after %d attempt(s): %s", c.attempt + 1,
            why.c_str());
    };

    while (!queue.empty() || !active.empty()) {
        // Fill free job slots with pending cells whose backoff has
        // elapsed (FIFO, so retries do not starve fresh cells).
        const auto now = Clock::now();
        for (auto it = queue.begin();
             it != queue.end()
             && active.size() < static_cast<std::size_t>(jobs_);) {
            if (it->notBefore <= now) {
                spawn(*it);
                it = queue.erase(it);
            } else {
                ++it;
            }
        }

        if (active.empty()) {
            // Everything pending is backing off: sleep to the nearest
            // notBefore.
            auto wake = queue.front().notBefore;
            for (const auto &p : queue)
                wake = std::min(wake, p.notBefore);
            std::this_thread::sleep_until(wake);
            continue;
        }

        // Poll until data, EOF, or the nearest deadline/backoff edge.
        auto wake = active.front().deadline;
        for (const auto &c : active)
            wake = std::min(wake, c.deadline);
        for (const auto &p : queue)
            wake = std::min(wake, p.notBefore);
        int poll_ms = static_cast<int>(std::max<std::int64_t>(
            0, std::chrono::duration_cast<std::chrono::milliseconds>(
                   wake - Clock::now())
                   .count()));
        std::vector<pollfd> fds(active.size());
        for (std::size_t k = 0; k < active.size(); ++k)
            fds[k] = pollfd{active[k].fd, POLLIN, 0};
        ::poll(fds.data(), fds.size(), std::min(poll_ms, 1000));

        // Enforce deadlines: a hung child is killed and then reaped
        // through the normal EOF path.
        for (auto &c : active) {
            if (!c.timedOut && Clock::now() >= c.deadline) {
                c.timedOut = true;
                ::kill(c.pid, SIGKILL);
            }
        }

        for (std::size_t k = 0; k < active.size();) {
            Child &c = active[k];
            if (!(fds[k].revents & (POLLIN | POLLHUP | POLLERR))
                && !c.timedOut) {
                ++k;
                continue;
            }
            char chunk[65536];
            ssize_t n = ::read(c.fd, chunk, sizeof(chunk));
            if (n > 0) {
                c.buf.append(chunk, static_cast<std::size_t>(n));
                ++k;
                continue;
            }
            if (n < 0 && (errno == EINTR || errno == EAGAIN)) {
                ++k;
                continue;
            }
            // EOF (or read error): the child is done; reap and
            // classify it.
            ::close(c.fd);
            int status = 0;
            ::waitpid(c.pid, &status, 0);
            classify(c, status);
            if (onProgress_)
                onProgress_();
            fds.erase(fds.begin() + static_cast<std::ptrdiff_t>(k));
            active.erase(active.begin()
                         + static_cast<std::ptrdiff_t>(k));
        }
    }
    return results;
}

bool
ExperimentRunner::writeTimeline(const std::string &path,
                                std::string *error) const
{
    std::vector<const sim::Timeline *> list;
    list.reserve(timelines_.size());
    for (const auto &tl : timelines_)
        list.push_back(tl.get());
    std::ofstream os(path, std::ios::binary);
    if (!os) {
        if (error)
            *error = "cannot open '" + path + "' for writing";
        return false;
    }
    sim::Timeline::writeChromeTrace(os, list);
    os.flush();
    if (!os) {
        if (error)
            *error = "short write to '" + path + "'";
        return false;
    }
    return true;
}

} // namespace charon::harness
