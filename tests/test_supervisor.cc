/**
 * @file
 * Sweep supervisor tests: journal merge semantics (torn tails,
 * first-writer-wins dedup, canonical sorted output), memory-only
 * seeding, shard journal naming/discovery, and the fault-tolerance
 * contract of runShardedSweep — worker kill/restart with zero
 * re-evaluated cells, poison-point quarantine after a double kill
 * (by crash or by the silence watchdog), graceful degradation when
 * the restart budget is exhausted, shard-count invariance of the
 * merged journal, and SIGTERM drain preserving the resume contract.
 *
 * Worker crashes are injected with the CHARON_TEST_* hooks the
 * workers read from their environment (see src/dse/supervisor.cc);
 * every test clears them on exit so later tests see a clean slate.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "dse/explorer.hh"
#include "dse/journal.hh"
#include "dse/param_space.hh"
#include "dse/supervisor.hh"
#include "harness/experiment_runner.hh"

using namespace charon;
using namespace charon::dse;

namespace
{

std::string
freshDir(const char *name)
{
    auto dir = std::filesystem::path(::testing::TempDir())
               / (std::string("charon-supervisor-") + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

JournalRecord
sampleRecord(const std::string &key, double scale)
{
    JournalRecord r;
    r.key = key;
    r.ok = true;
    r.gcSeconds = 0.1 * scale;
    r.minorSeconds = 0.06 * scale;
    r.majorSeconds = 0.04 * scale;
    r.mutatorSeconds = 1.5 * scale;
    r.avgGcBandwidthGBs = 123.456 * scale;
    r.localAccessFraction = 0.75;
    r.dramBytes = 1e9 * scale;
    r.hostEnergyJ = 2.5 * scale;
    r.dramEnergyJ = 1.25 * scale;
    r.unitEnergyJ = 0.125 * scale;
    return r;
}

/** Scoped CHARON_TEST_* crash hook: set on entry, cleared on exit. */
struct EnvGuard
{
    EnvGuard(const char *name, const std::string &value) : name_(name)
    {
        ::setenv(name, value.c_str(), 1);
    }
    ~EnvGuard() { ::unsetenv(name_); }
    const char *name_;
};

struct Sweep
{
    std::vector<harness::Cell> cells;
    std::vector<std::string> keys;
    std::vector<std::vector<std::size_t>> units;
};

/**
 * One DDR4 + one Charon cell per copy-search-unit count, one unit per
 * pair.  The knob is replay-side, so the whole sweep shares a single
 * functional run (cheap), yet every primary key is distinct and
 * carries a "/cs<N>/" token the poison-point hook can match.
 */
Sweep
pairSweep(const std::vector<int> &searchUnits)
{
    DsePoint point; // KM defaults: the cheapest workload
    auto fk =
        harness::ExperimentRunner::resolve(point.functionalKey());
    Sweep s;
    for (int units : searchUnits) {
        for (auto kind : {sim::PlatformKind::HostDdr4,
                          sim::PlatformKind::CharonNmp}) {
            harness::Cell c;
            c.key = fk;
            c.platform = kind;
            c.config = point.systemConfig();
            c.config.charon.copySearchUnits = units;
            s.keys.push_back(cellKey(c, 0));
            s.cells.push_back(std::move(c));
        }
        s.units.push_back(
            {s.cells.size() - 2, s.cells.size() - 1});
    }
    return s;
}

SupervisorConfig
baseConfig(const std::string &journal, const std::string &cacheDir,
           int shards)
{
    SupervisorConfig cfg;
    cfg.shards = shards;
    cfg.journalPath = journal;
    cfg.runner.jobs = 2;
    cfg.runner.cacheDir = cacheDir;
    cfg.backoffBaseSec = 0.01; // keep restart-heavy tests fast
    cfg.quiet = true;
    return cfg;
}

// ---------------------------------------------------------------------
// SweepJournal: repair, seeding, merge

TEST(SweepJournal, TornTailRepairedAtOpen)
{
    const std::string path = freshDir("torn") + "/sweep.dse.jsonl";
    std::string full =
        SweepJournal::formatLine(sampleRecord("cell-a", 1));
    {
        std::ofstream out(path, std::ios::binary);
        out << full << "\n" << full.substr(0, full.size() / 2);
    }

    // Opening repairs the torn tail immediately: the file ends with a
    // newline again, the torn record is a miss, the whole one a hit.
    SweepJournal journal(path);
    EXPECT_EQ(journal.size(), 1u);
    std::string bytes = slurp(path);
    ASSERT_FALSE(bytes.empty());
    EXPECT_EQ(bytes.back(), '\n');

    // An append right after open must start on a fresh line.
    ASSERT_TRUE(journal.append(sampleRecord("cell-b", 2)));
    SweepJournal reopened(path);
    JournalRecord out;
    EXPECT_TRUE(reopened.lookup("cell-a", out));
    EXPECT_TRUE(reopened.lookup("cell-b", out));
    EXPECT_EQ(out.gcSeconds, sampleRecord("cell-b", 2).gcSeconds);
}

TEST(SweepJournal, SeedingIsMemoryOnlyAndFirstWriterWins)
{
    const std::string dir = freshDir("seed");
    const std::string own = dir + "/own.dse.jsonl";
    const std::string sibling = dir + "/sibling.dse.jsonl";
    {
        SweepJournal sib(sibling);
        ASSERT_TRUE(sib.append(sampleRecord("shared", 2)));
        ASSERT_TRUE(sib.append(sampleRecord("sibling-only", 3)));
    }

    SweepJournal journal(own);
    ASSERT_TRUE(journal.append(sampleRecord("shared", 1)));

    // seedFrom counts only the records it inserted; existing keys
    // win, so "shared" keeps this journal's value.
    EXPECT_EQ(journal.seedFrom(sibling), 1u);
    JournalRecord out;
    ASSERT_TRUE(journal.lookup("shared", out));
    EXPECT_EQ(out.gcSeconds, sampleRecord("shared", 1).gcSeconds);
    ASSERT_TRUE(journal.lookup("sibling-only", out));

    journal.seedRecord(sampleRecord("seeded", 4));
    ASSERT_TRUE(journal.lookup("seeded", out));

    // Nothing seeded ever touches the file: a reopen sees only the
    // records this journal appended itself.
    SweepJournal reopened(own);
    EXPECT_EQ(reopened.size(), 1u);
    EXPECT_FALSE(reopened.lookup("sibling-only", out));
    EXPECT_FALSE(reopened.lookup("seeded", out));
}

TEST(SweepJournal, MergeJournalsDedupsRepairsAndSorts)
{
    const std::string dir = freshDir("merge");
    const std::string dst = dir + "/canonical.dse.jsonl";
    const std::string srcA = dir + "/a.dse.jsonl";
    const std::string srcB = dir + "/b.dse.jsonl";
    {
        SweepJournal d(dst);
        ASSERT_TRUE(d.append(sampleRecord("kz", 1)));
    }
    {
        SweepJournal a(srcA);
        ASSERT_TRUE(a.append(sampleRecord("kz", 9))); // dup: dst wins
        ASSERT_TRUE(a.append(sampleRecord("ka", 2)));
    }
    {
        std::ofstream b(srcB, std::ios::binary);
        b << SweepJournal::formatLine(sampleRecord("km", 3)) << "\n";
        b << "{\"v\":1,\"key\":\"torn"; // crash mid-append
    }

    SweepJournal::MergeStats stats;
    std::string error;
    ASSERT_TRUE(SweepJournal::mergeJournals(dst, {srcA, srcB},
                                            &error, &stats))
        << error;
    EXPECT_EQ(stats.records, 3u);
    EXPECT_EQ(stats.duplicates, 1u);
    EXPECT_EQ(stats.tornLines, 1u);
    EXPECT_EQ(stats.sources, 3u); // dst itself counts as a source

    // First-writer-wins: the dst copy of "kz" survived the merge.
    SweepJournal merged(dst);
    EXPECT_EQ(merged.size(), 3u);
    JournalRecord out;
    ASSERT_TRUE(merged.lookup("kz", out));
    EXPECT_EQ(out.gcSeconds, sampleRecord("kz", 1).gcSeconds);

    // Output is sorted by key and ends with a newline.
    std::string bytes = slurp(dst);
    EXPECT_EQ(bytes.back(), '\n');
    auto ka = bytes.find("\"ka\"");
    auto km = bytes.find("\"km\"");
    auto kz = bytes.find("\"kz\"");
    EXPECT_LT(ka, km);
    EXPECT_LT(km, kz);

    // Merging again with no sources is the identity: the file is
    // already canonical.
    ASSERT_TRUE(SweepJournal::mergeJournals(dst, {}, &error, &stats));
    EXPECT_EQ(slurp(dst), bytes);
}

// ---------------------------------------------------------------------
// Shard journal naming and discovery

TEST(Supervisor, ShardJournalPathNamingAndListing)
{
    EXPECT_EQ(shardJournalPath("smoke.dse.jsonl", 2),
              "smoke.shard-2.dse.jsonl");
    EXPECT_EQ(shardJournalPath("/tmp/x/fig13.dse.jsonl", 0),
              "/tmp/x/fig13.shard-0.dse.jsonl");

    const std::string dir = freshDir("listing");
    const std::string canonical = dir + "/sweep.dse.jsonl";
    for (int shard : {0, 1, 3}) {
        std::ofstream(shardJournalPath(canonical, shard))
            << SweepJournal::formatLine(sampleRecord("k", 1)) << "\n";
    }
    // Decoys the listing must skip.
    std::ofstream(canonical) << "";
    std::ofstream(dir + "/other.shard-1.dse.jsonl") << "";
    std::ofstream(dir + "/sweep.shard-x.dse.jsonl") << "";

    auto found = listShardJournals(canonical);
    ASSERT_EQ(found.size(), 3u);
    EXPECT_EQ(found[0], shardJournalPath(canonical, 0));
    EXPECT_EQ(found[1], shardJournalPath(canonical, 1));
    EXPECT_EQ(found[2], shardJournalPath(canonical, 3));
}

// ---------------------------------------------------------------------
// runShardedSweep: the fault-tolerance contract

TEST(Supervisor, ShardCountNeverChangesTheMergedJournal)
{
    const std::string dir = freshDir("invariance");
    const std::string cache = dir + "/cache";
    Sweep sweep = pairSweep({2, 4, 16, 32});

    // Unsharded reference: the plain in-process Explorer, then
    // canonicalised with the same merge the supervisor uses.
    const std::string ref = dir + "/ref.dse.jsonl";
    {
        SweepJournal journal(ref);
        harness::RunnerConfig rc;
        rc.jobs = 2;
        rc.cacheDir = cache;
        harness::ExperimentRunner runner(rc);
        Explorer explorer(runner, journal);
        auto records = explorer.runCells(sweep.cells, sweep.keys);
        for (const auto &r : records)
            ASSERT_TRUE(r.ok) << r.error;
    }
    ASSERT_TRUE(SweepJournal::mergeJournals(ref, {}));
    const std::string golden = slurp(ref);
    ASSERT_FALSE(golden.empty());

    for (int shards : {1, 2, 4}) {
        const std::string journal = dir + "/s"
                                    + std::to_string(shards)
                                    + ".dse.jsonl";
        auto res = runShardedSweep(
            sweep.cells, sweep.keys, sweep.units,
            baseConfig(journal, cache, shards));
        ASSERT_TRUE(res.ok) << res.error;
        EXPECT_EQ(res.unitsCommitted, sweep.units.size());
        EXPECT_EQ(res.reEvaluatedCells, 0u);
        EXPECT_TRUE(listShardJournals(journal).empty())
            << "shard files must be absorbed after the merge";
        EXPECT_EQ(slurp(journal), golden)
            << "shards=" << shards
            << " merged journal must be byte-identical";
    }
}

TEST(Supervisor, WorkerKillRestartReevaluatesNothing)
{
    const std::string dir = freshDir("killrestart");
    const std::string journal = dir + "/sweep.dse.jsonl";
    Sweep sweep = pairSweep({2, 4, 16, 32});
    auto cfg = baseConfig(journal, dir + "/cache", 2);
    cfg.restartsPerShard = 6;

    {
        // Every worker incarnation is SIGKILLed at the first unit
        // boundary after committing one fresh cell.
        EnvGuard kill("CHARON_TEST_CRASH_AFTER_SIGKILL", "1");
        auto res = runShardedSweep(sweep.cells, sweep.keys,
                                   sweep.units, cfg);
        ASSERT_TRUE(res.ok) << res.error;
        EXPECT_EQ(res.unitsCommitted, sweep.units.size());
        EXPECT_GE(res.workerCrashes, 1u);
        EXPECT_GE(res.restarts, 1u);
        EXPECT_EQ(res.reEvaluatedCells, 0u)
            << "restarted workers must resume from their journals";
    }

    // A clean re-run is answered entirely by the canonical journal.
    auto res = runShardedSweep(sweep.cells, sweep.keys, sweep.units,
                               cfg);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.unitsPrecommitted, sweep.units.size());
    EXPECT_EQ(res.unitsCommitted, 0u);
    EXPECT_EQ(res.restarts, 0u);
    EXPECT_EQ(res.reEvaluatedCells, 0u);
}

TEST(Supervisor, PoisonPointQuarantinedByKeyAndRetriedLater)
{
    const std::string dir = freshDir("quarantine");
    const std::string journal = dir + "/sweep.dse.jsonl";
    Sweep sweep = pairSweep({2, 4, 16, 32});
    auto cfg = baseConfig(journal, dir + "/cache", 2);
    cfg.restartsPerShard = 6;

    {
        // The unit whose key carries /cs16/ kills its worker every
        // time it starts: two strikes must quarantine it while the
        // rest of the sweep completes.
        EnvGuard poison("CHARON_TEST_CRASH_POINT", "/cs16/");
        auto res = runShardedSweep(sweep.cells, sweep.keys,
                                   sweep.units, cfg);
        ASSERT_TRUE(res.ok) << res.error;
        ASSERT_EQ(res.quarantined.size(), 1u);
        ASSERT_EQ(res.quarantinedKeys.size(), 1u);
        EXPECT_NE(res.quarantinedKeys[0].find("/cs16/"),
                  std::string::npos);
        EXPECT_EQ(res.unitsCommitted, sweep.units.size() - 1);
        EXPECT_GE(res.workerCrashes, 2u);

        // Quarantine never poisons the journal: the unit's cells are
        // absent, so a later resume retries them.
        SweepJournal check(journal);
        JournalRecord out;
        for (std::size_t cell : sweep.units[res.quarantined[0]])
            EXPECT_FALSE(check.lookup(sweep.keys[cell], out));
    }

    // With the hook gone the resume evaluates exactly the quarantined
    // unit and nothing else.
    auto res = runShardedSweep(sweep.cells, sweep.keys, sweep.units,
                               cfg);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_TRUE(res.quarantined.empty());
    EXPECT_EQ(res.unitsPrecommitted, sweep.units.size() - 1);
    EXPECT_EQ(res.unitsCommitted, 1u);
    EXPECT_EQ(res.reEvaluatedCells, 0u);
}

TEST(Supervisor, SilentWorkerIsKilledByWatchdogThenQuarantined)
{
    const std::string dir = freshDir("watchdog");
    const std::string journal = dir + "/sweep.dse.jsonl";
    const std::string cache = dir + "/cache";
    Sweep sweep = pairSweep({2, 4, 16, 32});
    // Warm the trace cache first: every cell shares one functional
    // run, so a healthy unit only replays and ticks its heartbeat far
    // inside the watchdog, even under sanitizers.
    {
        harness::RunnerConfig rc;
        rc.cacheDir = cache;
        harness::ExperimentRunner(rc).functional(sweep.cells[0].key);
    }
    auto cfg = baseConfig(journal, cache, 2);
    cfg.restartsPerShard = 6;
    cfg.progressTimeoutSec = 3;

    {
        // The unit whose key carries /cs16/ goes silent every time it
        // starts: the watchdog must kill its worker twice and
        // quarantine it while the rest of the sweep completes.
        EnvGuard hang("CHARON_TEST_HANG_POINT", "/cs16/");
        auto res = runShardedSweep(sweep.cells, sweep.keys,
                                   sweep.units, cfg);
        ASSERT_TRUE(res.ok) << res.error;
        ASSERT_EQ(res.quarantinedKeys.size(), 1u);
        EXPECT_NE(res.quarantinedKeys[0].find("/cs16/"),
                  std::string::npos);
        EXPECT_EQ(res.unitsCommitted, sweep.units.size() - 1);
        EXPECT_GE(res.workerCrashes, 2u);
    }

    // With the hook gone the resume evaluates exactly the quarantined
    // unit and nothing else.
    auto res = runShardedSweep(sweep.cells, sweep.keys, sweep.units,
                               cfg);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_TRUE(res.quarantined.empty());
    EXPECT_EQ(res.unitsPrecommitted, sweep.units.size() - 1);
    EXPECT_EQ(res.unitsCommitted, 1u);
    EXPECT_EQ(res.reEvaluatedCells, 0u);
}

TEST(Supervisor, DegradesToFewerShardsThenReportsUnfinished)
{
    const std::string dir = freshDir("degrade");
    const std::string journal = dir + "/sweep.dse.jsonl";
    Sweep sweep = pairSweep({2, 4});
    auto cfg = baseConfig(journal, dir + "/cache", 2);
    cfg.restartsPerShard = 1;

    // Every incarnation dies before its first unit, so each shard
    // burns its single restart and is abandoned; the sweep degrades
    // to zero shards and must report the units it never evaluated.
    EnvGuard crash("CHARON_TEST_CRASH_AFTER", "0");
    auto res = runShardedSweep(sweep.cells, sweep.keys, sweep.units,
                               cfg);
    EXPECT_FALSE(res.ok);
    EXPECT_FALSE(res.interrupted);
    EXPECT_NE(res.error.find("restart"), std::string::npos)
        << res.error;
    EXPECT_GE(res.degradations, 2u);
    EXPECT_EQ(res.unfinished.size(), sweep.units.size());
    EXPECT_EQ(res.unitsCommitted, 0u);
}

TEST(Supervisor, SigtermDrainPreservesResumeContract)
{
    const std::string dir = freshDir("drain");
    const std::string journal = dir + "/sweep.dse.jsonl";
    Sweep sweep = pairSweep({2, 4, 16, 32});
    auto cfg = baseConfig(journal, dir + "/cache", 2);
    cfg.drainSec = 20;

    // The interrupted run happens in a forked child: the SIGTERM it
    // raises against itself sets the process-wide interrupt flag,
    // which must not leak into this process (or later tests).
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Stretch each unit so the signal lands mid-sweep, then let
        // the drain window finish the inflight units.
        ::setenv("CHARON_TEST_UNIT_SLEEP_MS", "1500", 1);
        std::thread([] {
            std::this_thread::sleep_for(std::chrono::milliseconds(700));
            ::raise(SIGTERM);
        }).detach();
        auto res = runShardedSweep(sweep.cells, sweep.keys,
                                   sweep.units, cfg);
        std::_Exit(res.interrupted ? 0 : 1);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0)
        << "child sweep must report interrupted, not ok/failed";

    // Drained work was merged into the canonical journal, so the
    // resume starts from it and re-evaluates nothing.
    EXPECT_TRUE(listShardJournals(journal).empty());
    auto res = runShardedSweep(sweep.cells, sweep.keys, sweep.units,
                               cfg);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_GE(res.unitsPrecommitted, 1u)
        << "the drain window must land the inflight units";
    EXPECT_EQ(res.unitsPrecommitted + res.unitsCommitted,
              sweep.units.size());
    EXPECT_EQ(res.reEvaluatedCells, 0u);
}

} // namespace
