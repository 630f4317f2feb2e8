/**
 * @file
 * Tests for the experiment harness: the persistent trace cache
 * (hit/miss, version invalidation, corruption fallback, collision
 * rejection), the ExperimentRunner's determinism across thread
 * counts, functional-run sharing, OOM graceful degradation, the
 * crash-isolation pool's reaping, and the shared --jobs flag check.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "gc/trace_io.hh"
#include "harness/atomic_publish.hh"
#include "harness/experiment_runner.hh"
#include "harness/options.hh"
#include "harness/repo_root.hh"
#include "harness/supervised.hh"
#include "harness/trace_cache.hh"
#include "scratch_dir.hh"
#include "workload/catalog.hh"

using namespace charon;
using namespace charon::harness;

namespace
{

using test::freshDir;

/** A tiny synthetic run: cache tests need bytes, not realism. */
FunctionalRun
syntheticRun()
{
    FunctionalRun run;
    run.cubeShift = 26;
    run.gcsMinor = 7;
    run.gcsMajor = 2;
    run.markCycles = 1;
    run.allocatedBytes = 123456789;
    run.mutatorInstructions = 987654321;

    gc::GcTrace gc;
    gc.major = true;
    gc.liveObjects = 42;
    gc::PhaseTrace phase;
    phase.kind = gc::PhaseKind::MajorCompact;
    phase.bitmapCacheHitRate = 0.5;
    gc::ThreadWork work;
    work.glueInstructions = 100;
    gc::Bucket b;
    b.kind = gc::PrimKind::Copy;
    b.invocations = 3;
    b.seqReadBytes = 1024;
    b.writeBytes = 1024;
    work.buckets.push_back(b);
    phase.addThread(work);
    gc.phases.push_back(phase);
    run.trace.gcs.push_back(gc);
    run.trace.mutatorInstructions = {10, 20};
    return run;
}

FunctionalKey
syntheticKey()
{
    FunctionalKey key;
    key.workload = "KM";
    key.heapBytes = 64 * sim::kMiB;
    key.seed = 3;
    return key;
}

std::string
traceBytes(const gc::RunTrace &trace)
{
    std::ostringstream os;
    gc::writeTrace(os, trace);
    return os.str();
}

} // namespace

TEST(TraceCache, MissThenHitRoundTrip)
{
    TraceCache cache(freshDir("roundtrip"));
    const FunctionalKey key = syntheticKey();
    FunctionalRun out;
    EXPECT_FALSE(cache.load(key, out)) << "empty cache must miss";

    const FunctionalRun run = syntheticRun();
    ASSERT_TRUE(cache.store(key, run));
    ASSERT_TRUE(cache.load(key, out));
    EXPECT_EQ(out.cubeShift, run.cubeShift);
    EXPECT_EQ(out.oom, run.oom);
    EXPECT_EQ(out.gcsMinor, run.gcsMinor);
    EXPECT_EQ(out.gcsMajor, run.gcsMajor);
    EXPECT_EQ(out.markCycles, run.markCycles);
    EXPECT_EQ(out.allocatedBytes, run.allocatedBytes);
    EXPECT_EQ(out.mutatorInstructions, run.mutatorInstructions);
    EXPECT_EQ(traceBytes(out.trace), traceBytes(run.trace));
}

TEST(TraceCache, DistinctKeysAreDistinctEntries)
{
    TraceCache cache(freshDir("keys"));
    FunctionalKey a = syntheticKey();
    FunctionalKey b = a;
    b.seed = 4;
    FunctionalKey c = a;
    c.collector = gc::CollectorModel::G1;
    EXPECT_NE(cache.path(a), cache.path(b));
    EXPECT_NE(cache.path(a), cache.path(c));

    ASSERT_TRUE(cache.store(a, syntheticRun()));
    FunctionalRun out;
    EXPECT_FALSE(cache.load(b, out));
    EXPECT_FALSE(cache.load(c, out));
    EXPECT_TRUE(cache.load(a, out));
}

TEST(TraceCache, HashCollisionRejectedByHeaderCheck)
{
    // Simulate a file-name collision (or a hand-renamed file): the
    // stored header's key fields must still match the request.
    TraceCache cache(freshDir("collision"));
    FunctionalKey a = syntheticKey();
    FunctionalKey b = a;
    b.seed = 99;
    ASSERT_TRUE(cache.store(a, syntheticRun()));
    std::filesystem::copy_file(cache.path(a), cache.path(b));
    FunctionalRun out;
    EXPECT_FALSE(cache.load(b, out));
}

TEST(TraceCache, VersionBumpInvalidates)
{
    TraceCache cache(freshDir("version"));
    const FunctionalKey key = syntheticKey();
    ASSERT_TRUE(cache.store(key, syntheticRun()));

    // Flip the stored format version in place (a little-endian u64
    // right after the 8-byte magic), as if the entry were written by
    // a build with a different kTraceFormatVersion.
    {
        std::fstream f(cache.path(key),
                       std::ios::binary | std::ios::in | std::ios::out);
        ASSERT_TRUE(f.is_open());
        f.seekp(8);
        std::uint64_t bogus = gc::kTraceFormatVersion + 1;
        char bytes[8];
        for (int i = 0; i < 8; ++i)
            bytes[i] = static_cast<char>((bogus >> (8 * i)) & 0xff);
        f.write(bytes, 8);
    }
    FunctionalRun out;
    EXPECT_FALSE(cache.load(key, out))
        << "a version mismatch must read as a miss";
}

TEST(TraceCache, CorruptedFileIsMiss)
{
    TraceCache cache(freshDir("corrupt"));
    const FunctionalKey key = syntheticKey();
    ASSERT_TRUE(cache.store(key, syntheticRun()));

    // Truncate the payload: the header parses, the trace does not.
    auto size = std::filesystem::file_size(cache.path(key));
    std::filesystem::resize_file(cache.path(key), size - 9);
    FunctionalRun out;
    EXPECT_FALSE(cache.load(key, out));

    // Garbage from the first byte: not even the magic matches.
    {
        std::ofstream f(cache.path(key), std::ios::binary);
        f << "this is not a cache entry";
    }
    EXPECT_FALSE(cache.load(key, out));

    // The cache self-heals: a store over the bad entry hits again.
    ASSERT_TRUE(cache.store(key, syntheticRun()));
    EXPECT_TRUE(cache.load(key, out));
}

TEST(TraceCache, DisabledCacheNeverHits)
{
    TraceCache cache{std::string()};
    EXPECT_FALSE(cache.enabled());
    FunctionalRun out;
    EXPECT_FALSE(cache.store(syntheticKey(), syntheticRun()));
    EXPECT_FALSE(cache.load(syntheticKey(), out));
}

TEST(AtomicPublish, ReplacesWholeFileOrLeavesNothing)
{
    namespace fs = std::filesystem;
    const fs::path dir = freshDir("publish");
    const fs::path target = dir / "entry";
    std::ofstream(target) << "old bytes, longer than the new ones";

    std::string error;
    ASSERT_TRUE(atomicPublish(target.string(), "new", &error)) << error;
    std::ifstream in(target, std::ios::binary);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(content, "new");
    // No temp sibling survives a successful publish.
    std::vector<fs::path> entries(fs::directory_iterator(dir), {});
    EXPECT_EQ(entries, std::vector<fs::path>{target});

    // A missing directory fails with the target named, creating
    // neither the directory nor any file.
    const fs::path orphan = dir / "missing" / "entry";
    EXPECT_FALSE(atomicPublish(orphan.string(), "bytes", &error));
    EXPECT_NE(error.find(orphan.string()), std::string::npos) << error;
    EXPECT_FALSE(fs::exists(dir / "missing"));
    entries.assign(fs::directory_iterator(dir), {});
    EXPECT_EQ(entries, std::vector<fs::path>{target});
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    std::mutex mu;
    std::multiset<std::size_t> seen;
    parallelFor(4, 1000, [&](std::size_t i) {
        std::lock_guard<std::mutex> lock(mu);
        seen.insert(i);
    });
    ASSERT_EQ(seen.size(), 1000u);
    for (std::size_t i = 0; i < 1000; ++i)
        EXPECT_EQ(seen.count(i), 1u);
}

namespace
{

/** Two cheap workloads x three platforms, heap shrunk for speed. */
std::vector<Cell>
determinismCells()
{
    std::vector<Cell> cells;
    for (const char *name : {"CC", "ALS"}) {
        std::uint64_t heap =
            workload::findWorkload(name).minHeapBytes * 2;
        for (auto kind : {sim::PlatformKind::HostDdr4,
                          sim::PlatformKind::HostHmc,
                          sim::PlatformKind::CharonNmp}) {
            Cell c;
            c.key.workload = name;
            c.key.heapBytes = heap;
            c.platform = kind;
            cells.push_back(c);
        }
    }
    return cells;
}

} // namespace

TEST(ExperimentRunner, ParallelMatchesSerialBitForBit)
{
    const auto cells = determinismCells();
    // No cache directory: both runners do the functional runs
    // themselves, so this also exercises mutator determinism.
    ExperimentRunner serial(RunnerConfig{1, std::string()});
    ExperimentRunner parallel(RunnerConfig{4, std::string()});
    auto a = serial.run(cells);
    auto b = parallel.run(cells);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(cells[i].key.str());
        ASSERT_TRUE(a[i].ok);
        ASSERT_TRUE(b[i].ok);
        EXPECT_EQ(a[i].timing.gcSeconds, b[i].timing.gcSeconds);
        EXPECT_EQ(a[i].timing.minorSeconds, b[i].timing.minorSeconds);
        EXPECT_EQ(a[i].timing.majorSeconds, b[i].timing.majorSeconds);
        EXPECT_EQ(a[i].timing.dramBytes, b[i].timing.dramBytes);
        EXPECT_EQ(a[i].timing.avgGcBandwidthGBs,
                  b[i].timing.avgGcBandwidthGBs);
        EXPECT_EQ(a[i].timing.localAccessFraction,
                  b[i].timing.localAccessFraction);
        EXPECT_EQ(a[i].timing.totalEnergyJ(),
                  b[i].timing.totalEnergyJ());
        EXPECT_EQ(traceBytes(a[i].run->trace),
                  traceBytes(b[i].run->trace));
    }
}

TEST(ExperimentRunner, CellsOfOneKeyShareOneFunctionalRun)
{
    std::uint64_t heap = workload::findWorkload("CC").minHeapBytes * 2;
    std::vector<Cell> cells;
    for (auto kind : {sim::PlatformKind::HostDdr4,
                      sim::PlatformKind::HostHmc,
                      sim::PlatformKind::CharonNmp}) {
        Cell c;
        c.key.workload = "CC";
        c.key.heapBytes = heap;
        c.platform = kind;
        cells.push_back(c);
    }
    ExperimentRunner runner(RunnerConfig{2, std::string()});
    auto results = runner.run(cells);
    ASSERT_TRUE(results[0].ok);
    EXPECT_EQ(results[0].run.get(), results[1].run.get());
    EXPECT_EQ(results[0].run.get(), results[2].run.get());
}

TEST(ExperimentRunner, WarmCacheReproducesColdTimings)
{
    const std::string dir = freshDir("runner-cache");
    std::uint64_t heap = workload::findWorkload("CC").minHeapBytes * 2;
    Cell c;
    c.key.workload = "CC";
    c.key.heapBytes = heap;
    c.platform = sim::PlatformKind::CharonNmp;

    ExperimentRunner cold(RunnerConfig{1, dir});
    auto a = cold.run({c});
    ASSERT_TRUE(a[0].ok);

    // A fresh runner on the same directory must hit the disk cache;
    // prove the hit at the cache layer, then the timing equality.
    TraceCache cache(dir);
    FunctionalRun entry;
    EXPECT_TRUE(
        cache.load(ExperimentRunner::resolve(c.key), entry));

    ExperimentRunner warm(RunnerConfig{1, dir});
    auto b = warm.run({c});
    ASSERT_TRUE(b[0].ok);
    EXPECT_EQ(a[0].timing.gcSeconds, b[0].timing.gcSeconds);
    EXPECT_EQ(a[0].timing.totalEnergyJ(), b[0].timing.totalEnergyJ());
    EXPECT_EQ(a[0].run->gcsMinor, b[0].run->gcsMinor);
}

TEST(ExperimentRunner, OomCellFailsGracefullyOthersComplete)
{
    const auto &params = workload::findWorkload("CC");
    Cell oom;
    oom.key.workload = "CC";
    oom.key.heapBytes = params.minHeapBytes / 3; // guaranteed OOM
    oom.platform = sim::PlatformKind::CharonNmp;

    Cell good;
    good.key.workload = "CC";
    good.key.heapBytes = params.minHeapBytes * 2;
    good.platform = sim::PlatformKind::CharonNmp;

    ExperimentRunner runner(RunnerConfig{2, std::string()});
    auto results = runner.run({oom, good});
    EXPECT_FALSE(results[0].ok);
    EXPECT_TRUE(results[0].oom);
    EXPECT_NE(results[0].error.find("OOM"), std::string::npos);
    ASSERT_TRUE(results[1].ok) << "the OOM cell must not poison the "
                                  "rest of the run";
    EXPECT_GT(results[1].timing.gcSeconds, 0.0);
}

TEST(ExperimentRunner, OomRunsAreCachedToo)
{
    const std::string dir = freshDir("oom-cache");
    const auto &params = workload::findWorkload("CC");
    Cell oom;
    oom.key.workload = "CC";
    oom.key.heapBytes = params.minHeapBytes / 3;
    oom.platform = sim::PlatformKind::HostDdr4;

    ExperimentRunner runner(RunnerConfig{1, dir});
    auto results = runner.run({oom});
    EXPECT_FALSE(results[0].ok);

    TraceCache cache(dir);
    FunctionalRun entry;
    ASSERT_TRUE(cache.load(ExperimentRunner::resolve(oom.key), entry));
    EXPECT_TRUE(entry.oom);
}

// --- Timeline integration -------------------------------------------

TEST(ExperimentRunner, DisabledTimelineCostsNothing)
{
    // The zero-overhead contract: with RunnerConfig::timeline false
    // (the default), a full record+replay sweep must never construct
    // a Timeline or record a single event.
    const auto cells = determinismCells();
    const std::uint64_t instances =
        sim::Timeline::totalInstancesCreated();
    const std::uint64_t events = sim::Timeline::totalEventsRecorded();

    ExperimentRunner runner(RunnerConfig{2, std::string()});
    auto results = runner.run(cells);
    for (const auto &res : results)
        ASSERT_TRUE(res.ok);

    EXPECT_EQ(sim::Timeline::totalInstancesCreated(), instances);
    EXPECT_EQ(sim::Timeline::totalEventsRecorded(), events);
    EXPECT_TRUE(runner.timelines().empty());
}

TEST(ExperimentRunner, TimelineIsIdenticalAtAnyJobCount)
{
    // Each cell's replay is single-threaded and deterministic, and the
    // exporter merges per-cell timelines in submission order — so the
    // merged JSON must be byte-identical between --jobs=1 and
    // --jobs=8.
    const auto cells = determinismCells();
    auto traced = [&](int jobs) {
        ExperimentRunner runner(
            RunnerConfig{jobs, std::string(), true});
        auto results = runner.run(cells);
        for (const auto &res : results)
            EXPECT_TRUE(res.ok);
        EXPECT_EQ(runner.timelines().size(), cells.size());
        std::ostringstream os;
        std::vector<const sim::Timeline *> list;
        for (const auto &tl : runner.timelines())
            list.push_back(tl.get());
        sim::Timeline::writeChromeTrace(os, list);
        return os.str();
    };
    const std::string serial = traced(1);
    const std::string parallel = traced(8);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
}

TEST(ExperimentRunner, TimelineCoversEveryInstrumentedLayer)
{
    // One Charon replay must produce the GC-phase track, per-thread
    // primitive spans, DRAM/TSV counter tracks, unit-pool tracks, and
    // the host stall counter.
    std::uint64_t heap = workload::findWorkload("CC").minHeapBytes * 2;
    Cell c;
    c.key.workload = "CC";
    c.key.heapBytes = heap;
    c.platform = sim::PlatformKind::CharonNmp;
    ExperimentRunner runner(RunnerConfig{1, std::string(), true});
    auto results = runner.run({c});
    ASSERT_TRUE(results[0].ok);
    ASSERT_EQ(runner.timelines().size(), 1u);
    const sim::Timeline &tl = *runner.timelines()[0];
    std::set<std::string> tracks;
    for (sim::Timeline::TrackId t = 0; t < tl.trackCount(); ++t)
        tracks.insert(tl.trackName(t));
    EXPECT_TRUE(tracks.count("gc"));
    EXPECT_TRUE(tracks.count("thread 0"));
    EXPECT_TRUE(tracks.count("host.memstall"));
    EXPECT_TRUE(tracks.count("hmc.cube0.tsv"));
    EXPECT_TRUE(tracks.count("charon.cs0"));
    EXPECT_FALSE(tl.events().empty());
}

TEST(ExperimentRunner, RollupMatchesBreakdownExactly)
{
    // The roll-up is built from the same accumulators as the
    // breakdown, so per-kind sums must agree to 1e-9, not just
    // approximately.
    const auto cells = determinismCells();
    ExperimentRunner runner(RunnerConfig{2, std::string()});
    auto results = runner.run(cells);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        SCOPED_TRACE(cells[i].key.str());
        ASSERT_TRUE(results[i].ok);
        const auto &timing = results[i].timing;
        gc::RunRollup rollup = timing.rollup();
        platform::PrimBreakdown b = timing.breakdown();
        EXPECT_NEAR(rollup.totalByKind(gc::PrimKind::Copy).seconds,
                    b.copy, 1e-9);
        EXPECT_NEAR(rollup.totalByKind(gc::PrimKind::Search).seconds,
                    b.search, 1e-9);
        EXPECT_NEAR(rollup.totalByKind(gc::PrimKind::ScanPush).seconds,
                    b.scanPush, 1e-9);
        EXPECT_NEAR(
            rollup.totalByKind(gc::PrimKind::BitmapCount).seconds,
            b.bitmapCount, 1e-9);
        EXPECT_NEAR(rollup.glueSeconds(), b.glue, 1e-9);
        // Wall-clock: the phases partition each pause exactly on
        // host platforms; Charon pauses also carry the GC-prologue
        // cache flush, which belongs to no phase.
        const bool charon =
            cells[i].platform == sim::PlatformKind::CharonNmp;
        for (const auto &gc_timing : timing.gcs) {
            double wall = 0;
            for (const auto &phase : gc_timing.rollup.phases)
                wall += phase.wallSeconds;
            if (charon)
                EXPECT_LE(wall, gc_timing.seconds + 1e-9);
            else
                EXPECT_NEAR(wall, gc_timing.seconds, 1e-9);
        }
    }
}

TEST(Supervised, ReapsAnExitedChildWhileItsGrandchildHoldsThePipe)
{
    // The child leaves a grandchild holding the write end of its pipe,
    // so end of file comes only when the grandchild exits; the child's
    // bytes and exit status must arrive as soon as the child is gone.
    Supervised pool;
    ASSERT_TRUE(pool.spawn(7, 0, [](int fd) {
        if (::fork() == 0) {
            // Hold only the pipe, so the test runner does not wait on
            // this process's copy of stdout.
            ::close(STDOUT_FILENO);
            ::close(STDERR_FILENO);
            std::this_thread::sleep_for(std::chrono::seconds(3));
            std::_Exit(0);
        }
        writeAll(fd, "result", 6);
        std::_Exit(5);
    }));
    std::string bytes;
    std::vector<std::pair<std::size_t, int>> exits;
    const auto start = Supervised::Clock::now();
    while (pool.running() > 0)
        pool.poll(Supervised::after(0.1),
                  [&](std::size_t, std::string_view b) { bytes += b; },
                  [&](std::size_t tag, const Supervised::Exit &exit) {
                      exits.emplace_back(tag, exit.code);
                  });
    EXPECT_LT(Supervised::Clock::now() - start, std::chrono::seconds(2));
    EXPECT_EQ(bytes, "result");
    ASSERT_EQ(exits.size(), 1u);
    EXPECT_EQ(exits[0], std::make_pair(std::size_t{7}, 5));
}

TEST(Options, JobsMustBeANonNegativeInteger)
{
    for (const char *bad : {"--jobs=abc", "--jobs=4x"}) {
        Options opt;
        const char *argv[] = {"bench", bad};
        EXPECT_FALSE(parseOptions(2, const_cast<char **>(argv), opt))
            << bad;
    }
    Options opt;
    const char *argv[] = {"bench", "--jobs=3"};
    ASSERT_TRUE(parseOptions(2, const_cast<char **>(argv), opt));
    EXPECT_EQ(opt.jobs, 3);
}

// ---------------------------------------------------------------------
// findRepoRoot: artifact-path discovery for out-of-tree build dirs.
// ---------------------------------------------------------------------

namespace
{

/**
 * A fresh directory outside every checkout: from inside the build tree
 * the walk up would reach this repository's ROADMAP.md.  It sits in
 * the system temp directory, under a name taken from the build tree's
 * scratch root, so two build trees never share it.
 */
std::string
outsideCheckoutDir(const char *name)
{
    auto tree = std::hash<std::string>{}(CHARON_TEST_SCRATCH_DIR);
    return freshDir(name, std::filesystem::path(::testing::TempDir())
                              / ("charon-" + std::to_string(tree)));
}

} // namespace

TEST(RepoRoot, RoadmapAncestorBeatsNestedGitCheckout)
{
    // The regression shape: a fetched dependency's checkout under
    // build-rel/_deps/<pkg>-src/ carries its own .git, and the bench
    // used to stop there instead of climbing to the real root.
    namespace fs = std::filesystem;
    fs::path root = outsideCheckoutDir("reporoot-nested");
    std::ofstream(root / "ROADMAP.md") << "north star\n";
    fs::path depsSrc = root / "build-rel" / "_deps" / "x-src";
    fs::create_directories(depsSrc / ".git");
    fs::path start = depsSrc / "inner";
    fs::create_directories(start);
    EXPECT_EQ(findRepoRoot(start), root);
    // Out-of-tree flavor of the same walk: build-*/ directly under
    // the root must also land on the root, not on build-*/ itself.
    fs::path buildDir = root / "build-asan";
    fs::create_directories(buildDir);
    EXPECT_EQ(findRepoRoot(buildDir), root);
}

TEST(RepoRoot, GitIsOnlyAFallbackWithoutRoadmap)
{
    namespace fs = std::filesystem;
    fs::path root = outsideCheckoutDir("reporoot-gitonly");
    fs::create_directories(root / ".git");
    fs::path start = root / "build" / "bench";
    fs::create_directories(start);
    EXPECT_EQ(findRepoRoot(start), root);

    // A gitlink *file* (worktree / submodule) counts the same as a
    // .git directory.
    fs::path wt = outsideCheckoutDir("reporoot-gitfile");
    std::ofstream(wt / ".git") << "gitdir: elsewhere\n";
    fs::path wtStart = wt / "sub";
    fs::create_directories(wtStart);
    EXPECT_EQ(findRepoRoot(wtStart), wt);

    // The *first* .git seen wins among fallbacks: a nested checkout
    // with no ROADMAP.md above it is its own root.
    fs::path nested = root / "vendor" / "dep";
    fs::create_directories(nested / ".git");
    EXPECT_EQ(findRepoRoot(nested), nested);
}

TEST(RepoRoot, NoMarkersReturnsStart)
{
    namespace fs = std::filesystem;
    fs::path bare = outsideCheckoutDir("reporoot-bare");
    fs::path start = bare / "deep" / "er";
    fs::create_directories(start);
    EXPECT_EQ(findRepoRoot(start), start);
}
