#include "experiment_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <exception>
#include <fstream>
#include <sstream>
#include <thread>

#include "gc/rollup.hh"
#include "gc/trace_io.hh"
#include "harness/atomic_publish.hh"
#include "harness/supervised.hh"
#include "platform/platform_sim.hh"
#include "sim/logging.hh"
#include "workload/mutator.hh"

namespace charon::harness
{

std::string
FunctionalKey::str() const
{
    std::ostringstream os;
    os << workload << '/' << gc::collectorToken(collector) << "/h"
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
    workload::Mutator mut(workload::findWorkload(key.workload),
                          key.heapBytes, key.seed, key.gcThreads,
                          key.numCubes, key.collector);
    mut.recorder().setCopyOffloadThreshold(key.copyOffloadThreshold);
    auto r = mut.run();
    FunctionalRun out;
    out.trace = mut.recorder().run();
    out.cubeShift = mut.cubeShift();
    out.oom = r.oom;
    out.gcsMinor = r.minorGcs;
    out.gcsMajor = r.majorGcs;
    out.markCycles = r.markCycles;
    out.allocatedBytes = r.allocatedBytes;
    out.mutatorInstructions = r.mutatorInstructions;
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
    return cellTimeoutSec_ > 0 ? runIsolated(cells) : runInProcess(cells);
}

std::vector<CellResult>
ExperimentRunner::runInProcess(const std::vector<Cell> &cells)
{
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
// as crashed.  The field table is the wire order for both directions.

using platform::RunTiming;

constexpr double RunTiming::*kTimingFields[] = {
    &RunTiming::gcSeconds,           &RunTiming::minorSeconds,
    &RunTiming::majorSeconds,        &RunTiming::mutatorSeconds,
    &RunTiming::dramBytes,           &RunTiming::avgGcBandwidthGBs,
    &RunTiming::localAccessFraction, &RunTiming::hostEnergyJ,
    &RunTiming::dramEnergyJ,         &RunTiming::unitEnergyJ,
};

void
putTiming(std::ostream &os, const RunTiming &t)
{
    using namespace gc::io;
    putU64(os, static_cast<std::uint64_t>(t.platform));
    for (auto field : kTimingFields)
        putF64(os, t.*field);
    putU64(os, t.gcs.size());
    for (const auto &gc : t.gcs) {
        putU64(os, gc.major ? 1 : 0);
        putF64(os, gc.seconds);
        putF64(os, gc.unitSeconds);
    }
    gc::writeRollup(os, t.rollup());
}

bool
getTiming(std::istream &is, RunTiming &t)
{
    using namespace gc::io;
    std::uint64_t platform, gcs;
    if (!getU64(is, platform))
        return false;
    t.platform = static_cast<sim::PlatformKind>(platform);
    for (auto field : kTimingFields) {
        if (!getF64(is, t.*field))
            return false;
    }
    if (!getU64(is, gcs))
        return false;
    t.gcs.resize(gcs);
    for (auto &gc : t.gcs) {
        std::uint64_t major;
        if (!getU64(is, major) || !getF64(is, gc.seconds)
            || !getF64(is, gc.unitSeconds)) {
            return false;
        }
        gc.major = major != 0;
    }
    gc::RunRollup rollup;
    if (!gc::readRollup(is, rollup, nullptr)
        || rollup.gcs.size() != t.gcs.size()) {
        return false;
    }
    for (std::size_t i = 0; i < t.gcs.size(); ++i)
        t.gcs[i].rollup = std::move(rollup.gcs[i]);
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
    if (res.run)
        writeFunctionalRun(os, *res.run);
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
        if (!readFunctionalRun(is, *run))
            return false;
        res.run = std::move(run);
    }
    return getTiming(is, res.timing);
}

} // namespace

std::vector<CellResult>
ExperimentRunner::runIsolated(const std::vector<Cell> &cells)
{
    using Clock = Supervised::Clock;

    std::vector<CellResult> results(cells.size());
    if (timeline_) {
        sim::warn("timelines are not collected in crash-isolated mode "
                  "(--cell-timeout)");
    }

    // Resolve keys on the main thread (findWorkload is fatal on a
    // typo, which must not look like a cell crash).
    for (const Cell &cell : cells) {
        if (!cell.customRun)
            resolve(cell.key);
    }

    struct Pending
    {
        std::size_t cell;
        Clock::time_point notBefore;
    };
    std::deque<Pending> queue;
    for (std::size_t i = 0; i < cells.size(); ++i)
        queue.push_back(Pending{i, Clock::now()});
    // Per cell: the failed attempts so far, and the bytes its running
    // child has written.
    std::vector<int> attempt(cells.size(), 0);
    std::vector<std::string> payload(cells.size());

    auto onBytes = [&](std::size_t i, std::string_view bytes) {
        payload[i].append(bytes);
    };
    auto onExit = [&](std::size_t i, const Supervised::Exit &exit) {
        if (onProgress_)
            onProgress_();
        std::string why = exit.why;
        if (exit.code == 0) {
            std::istringstream is(std::move(payload[i]));
            CellResult res;
            if (getCellResult(is, res)) {
                results[i] = std::move(res);
                return;
            }
            why = "truncated result payload (crashed mid-write?)";
        }
        payload[i].clear();
        if (attempt[i] < cellRetries_) {
            // Exponential backoff before the retry: transient trouble
            // (resource pressure) gets room to clear; deterministic
            // crashes burn through quickly and quarantine.
            queue.push_back(Pending{
                i, Supervised::after(
                       Supervised::backoffSec(0.1, attempt[i]++))});
            return;
        }
        results[i].ok = false;
        results[i].error =
            sim::format("quarantined after %d attempt(s): %s",
                        attempt[i] + 1, why.c_str());
    };

    Supervised pool;
    while (!queue.empty() || pool.running() > 0) {
        // Fill free job slots with pending cells whose backoff has
        // elapsed (FIFO, so retries do not starve fresh cells), and
        // wake for the nearest backoff edge.
        auto until = Clock::now() + std::chrono::seconds(1);
        for (auto it = queue.begin();
             it != queue.end()
             && pool.running() < static_cast<std::size_t>(jobs_);) {
            if (it->notBefore > Clock::now()) {
                until = std::min(until, it->notBefore);
                ++it;
                continue;
            }
            const std::size_t i = it->cell;
            it = queue.erase(it);
            std::string error;
            // The child evaluates its one cell in-process, with no
            // timeline or progress ticks, and ships the result.
            if (!pool.spawn(i, cellTimeoutSec_,
                            [&](int fd) {
                                timeline_ = false;
                                onProgress_ = nullptr;
                                std::ostringstream os;
                                putCellResult(
                                    os, runInProcess({cells[i]})[0]);
                                const std::string bytes = os.str();
                                writeAll(fd, bytes.data(), bytes.size());
                            },
                            &error)) {
                sim::fatal("isolated runner: %s", error.c_str());
            }
        }
        pool.poll(until, onBytes, onExit);
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
