/**
 * @file
 * Tests for the fault-injection layer and the graceful-degradation
 * machinery it exercises: spec parsing, replay determinism under
 * faults at any job count, zero-cost-when-disabled, promotion-failure
 * recovery, recorder failover, metadata corruption detection, the
 * crash-isolated runner (hangs, crashes, quarantine), and the sweep
 * journal's kill-durability.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

#include "dse/explorer.hh"
#include "dse/journal.hh"
#include "fault/fault.hh"
#include "fault/inject.hh"
#include "gc/collector.hh"
#include "gc/scavenge.hh"
#include "gc/verify.hh"
#include "harness/experiment_runner.hh"
#include "harness/options.hh"
#include "harness/result_sink.hh"
#include "timing_eq.hh"
#include "workload/mutator.hh"

using namespace charon;
using namespace charon::fault;

namespace
{

std::string
freshPath(const char *name)
{
    auto p = std::filesystem::path(::testing::TempDir())
             / (std::string("charon-fault-") + name);
    std::filesystem::remove_all(p);
    return p.string();
}

/** A Charon replay cell on the cheapest calibrated workload. */
harness::Cell
charonCell()
{
    harness::Cell c;
    c.key.workload = "CC";
    c.key.heapBytes = workload::findWorkload("CC").minHeapBytes * 2;
    c.platform = sim::PlatformKind::CharonNmp;
    c.label = "CC on Charon";
    return c;
}

FaultPlan
onePlan(const std::string &text, std::uint64_t seed = 1)
{
    FaultSpec spec;
    std::string error;
    EXPECT_TRUE(parseFaultSpec(text, spec, &error)) << error;
    FaultPlan plan;
    plan.seed = seed;
    plan.specs.push_back(spec);
    return plan;
}

} // namespace

// --- spec grammar ---------------------------------------------------

TEST(FaultSpec, ParseRoundTrip)
{
    FaultSpec spec;
    std::string error;
    ASSERT_TRUE(parseFaultSpec(
        "unit-stall:cube=1:rate=0.25:stall-ns=500:at-ns=1000", spec,
        &error))
        << error;
    EXPECT_EQ(spec.kind, FaultKind::UnitStall);
    EXPECT_EQ(spec.cube, 1);
    EXPECT_DOUBLE_EQ(spec.rate, 0.25);
    EXPECT_GT(spec.stallTicks, 0u);
    EXPECT_GT(spec.atTick, 0u);

    // str() must re-parse to the same spec.
    FaultSpec again;
    ASSERT_TRUE(parseFaultSpec(spec.str(), again, &error)) << error;
    EXPECT_EQ(again.str(), spec.str());
}

TEST(FaultSpec, ParseRejectsUnknownKindAndKey)
{
    FaultSpec spec;
    std::string error;
    EXPECT_FALSE(parseFaultSpec("warp-core-breach", spec, &error));
    EXPECT_FALSE(error.empty());
    error.clear();
    EXPECT_FALSE(parseFaultSpec("unit-stall:warp=9", spec, &error));
    EXPECT_FALSE(error.empty());
}

TEST(FaultSpec, EveryKindHasNameAndParses)
{
    for (int k = 0; k < kNumFaultKinds; ++k) {
        auto kind = static_cast<FaultKind>(k);
        FaultKind parsed;
        ASSERT_TRUE(parseFaultKind(faultKindName(kind), parsed))
            << faultKindName(kind);
        EXPECT_EQ(parsed, kind);
    }
}

// --- replay determinism and zero cost -------------------------------

TEST(FaultReplay, SeededFaultsAreIdenticalAtAnyJobCount)
{
    std::vector<harness::Cell> cells;
    cells.push_back(charonCell()); // clean reference
    for (const char *text :
         {"unit-stall:rate=0.5:stall-ns=500", "unit-death:cube=0",
          "tlb-poison:rate=0.5", "link-degrade:cube=0:factor=0.25",
          "tsv-degrade:cube=0:factor=0.25", "cube-offline:cube=1"}) {
        harness::Cell c = charonCell();
        c.faults = onePlan(text, /*seed=*/7);
        c.label = std::string(text) + " on Charon";
        cells.push_back(c);
    }

    harness::ExperimentRunner serial(
        harness::RunnerConfig{1, std::string()});
    harness::ExperimentRunner parallel(
        harness::RunnerConfig{4, std::string()});
    auto a = serial.run(cells);
    auto b = parallel.run(cells);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(cells[i].label);
        ASSERT_TRUE(a[i].ok) << a[i].error;
        ASSERT_TRUE(b[i].ok) << b[i].error;
        EXPECT_EQ(a[i].timing.gcSeconds, b[i].timing.gcSeconds);
        EXPECT_EQ(a[i].timing.minorSeconds, b[i].timing.minorSeconds);
        EXPECT_EQ(a[i].timing.majorSeconds, b[i].timing.majorSeconds);
        EXPECT_EQ(a[i].timing.dramBytes, b[i].timing.dramBytes);
        EXPECT_EQ(a[i].timing.totalEnergyJ(),
                  b[i].timing.totalEnergyJ());
    }
}

TEST(FaultReplay, DisabledPlanIsByteIdenticalToNoPlan)
{
    // A plan with no specs must not construct an engine: timings are
    // bit-equal to the default cell even with a different seed.
    harness::Cell plain = charonCell();
    harness::Cell seeded = charonCell();
    seeded.faults.seed = 99;

    harness::ExperimentRunner runner(
        harness::RunnerConfig{1, std::string()});
    auto r = runner.run({plain, seeded});
    ASSERT_TRUE(r[0].ok);
    ASSERT_TRUE(r[1].ok);
    EXPECT_EQ(r[0].timing.gcSeconds, r[1].timing.gcSeconds);
    EXPECT_EQ(r[0].timing.totalEnergyJ(), r[1].timing.totalEnergyJ());
    EXPECT_EQ(r[0].timing.dramBytes, r[1].timing.dramBytes);
}

TEST(FaultReplay, DegradedReplaysCompleteAndBandwidthFaultsSlow)
{
    harness::Cell clean = charonCell();
    harness::Cell offline = charonCell();
    offline.faults = onePlan("cube-offline:cube=0");
    harness::Cell tsv = charonCell();
    tsv.faults = onePlan("tsv-degrade:cube=0:factor=0.1");
    harness::Cell dead = charonCell();
    dead.faults = onePlan("unit-death"); // every cube's units die

    harness::ExperimentRunner runner(
        harness::RunnerConfig{2, std::string()});
    auto r = runner.run({clean, offline, tsv, dead});
    for (const auto &res : r)
        ASSERT_TRUE(res.ok) << res.error;
    // Bandwidth loss must cost time, never wedge the replay.
    EXPECT_GT(r[1].timing.gcSeconds, r[0].timing.gcSeconds);
    EXPECT_GT(r[2].timing.gcSeconds, r[0].timing.gcSeconds);
    // All-units-dead degrades to host execution: finite and positive.
    EXPECT_GT(r[3].timing.gcSeconds, 0.0);
}

// --- promotion-failure recovery -------------------------------------

namespace
{

class PromotionFaultTest : public ::testing::Test
{
  protected:
    PromotionFaultTest()
    {
        nodeId = klasses.defineInstance("Node", 2, 2);
        cfg.heapBytes = 16 * sim::kMiB;
        cfg.tenuringThreshold = 2;
        heap = std::make_unique<heap::ManagedHeap>(cfg, klasses);
        rec = std::make_unique<gc::TraceRecorder>(4, 22);
    }

    mem::Addr
    rootNode(std::size_t slot)
    {
        mem::Addr obj = heap->allocEden(nodeId);
        EXPECT_NE(obj, 0u);
        if (heap->roots().size() <= slot)
            heap->roots().resize(slot + 1, 0);
        heap->roots()[slot] = obj;
        return obj;
    }

    heap::KlassTable klasses;
    heap::KlassId nodeId = 0;
    heap::HeapConfig cfg;
    std::unique_ptr<heap::ManagedHeap> heap;
    std::unique_ptr<gc::TraceRecorder> rec;
};

} // namespace

TEST_F(PromotionFaultTest, ScavengeSelfForwardsAndPreservesGraph)
{
    // A small linked structure, then every GC-internal allocation
    // fails: no object can be evacuated, all must self-forward, and
    // the object graph must come out untouched.
    mem::Addr a = rootNode(0);
    mem::Addr b = rootNode(1);
    heap->storeRef(a, 0, b);
    heap->storeRef(b, 1, a);
    auto before = gc::fingerprintHeap(*heap);

    heap->setGcAllocFault(/*after=*/0, /*count=*/1u << 20);
    gc::Scavenge scavenge(*heap, *rec);
    auto result = scavenge.collect();
    EXPECT_TRUE(result.promotionFailed);
    EXPECT_GT(result.objectsFailed, 0u);

    gc::checkHeapIntegrity(*heap);
    auto after = gc::fingerprintHeap(*heap);
    EXPECT_TRUE(before == after)
        << "failed scavenge must preserve the reachable graph";
}

TEST_F(PromotionFaultTest, CollectorEscalatesToFullGc)
{
    for (std::size_t i = 0; i < 64; ++i)
        rootNode(i);
    auto before = gc::fingerprintHeap(*heap);

    gc::Collector collector(*heap, *rec);
    heap->setGcAllocFault(/*after=*/4, /*count=*/1u << 20);
    auto result = collector.minorCollect();
    EXPECT_TRUE(result.promotionFailed);
    // The degradation state machine: Minor -> Major, and the
    // allocation-free mark-compact recovers the heap.
    EXPECT_EQ(collector.majorCount(), 1u);

    gc::checkHeapIntegrity(*heap);
    auto after = gc::fingerprintHeap(*heap);
    EXPECT_TRUE(before == after);
}

TEST(PromotionFault, MutatorRunRecoversEndToEnd)
{
    const auto &params = workload::findWorkload("CC");
    workload::Mutator m(params, params.minHeapBytes * 2);
    m.heap().setGcAllocFault(/*after=*/32, /*count=*/4);
    auto result = m.run();
    EXPECT_FALSE(result.oom);
    EXPECT_GT(result.majorGcs, 0u) << "the injected failure must "
                                      "have escalated at least once";
    gc::checkHeapIntegrity(m.heap());
    EXPECT_TRUE(gc::verifyCardTable(m.heap()).ok());
}

// --- recorder failover ----------------------------------------------

TEST(Failover, TripsToHostOnlyAndPreservesFingerprint)
{
    const auto &params = workload::findWorkload("CC");
    const std::uint64_t heapBytes = params.minHeapBytes * 2;

    workload::Mutator clean(params, heapBytes);
    auto cleanResult = clean.run();
    ASSERT_FALSE(cleanResult.oom);
    auto cleanFp = gc::fingerprintHeap(clean.heap());

    workload::Mutator faulted(params, heapBytes);
    faulted.recorder().armFailover(/*after=*/0);
    auto result = faulted.run();
    ASSERT_FALSE(result.oom);
    EXPECT_TRUE(faulted.recorder().failoverTripped());

    // Degrading the recording is timing-model-only: the functional
    // collections are untouched, so the final graph matches.
    auto fp = gc::fingerprintHeap(faulted.heap());
    EXPECT_TRUE(fp == cleanFp);
    EXPECT_EQ(result.minorGcs, cleanResult.minorGcs);
    EXPECT_EQ(result.majorGcs, cleanResult.majorGcs);

    // Tripped from the first invocation: every recorded bucket must
    // be host-only.
    const gc::RunTrace &trace = faulted.recorder().run();
    std::uint64_t buckets = 0;
    for (const auto &gcTrace : trace.gcs)
        for (const auto &phase : gcTrace.phases)
            phase.forEachBucket([&](const gc::Bucket &bucket) {
                EXPECT_TRUE(bucket.hostOnly);
                ++buckets;
            });
    EXPECT_GT(buckets, 0u);
}

// --- metadata corruption detection ----------------------------------

namespace
{

/** A heap with old-generation objects referencing young ones. */
struct CorruptionRig
{
    heap::KlassTable klasses;
    heap::KlassId nodeId;
    heap::HeapConfig cfg;
    std::unique_ptr<heap::ManagedHeap> heap;

    CorruptionRig()
    {
        nodeId = klasses.defineInstance("Node", 2, 2);
        cfg.heapBytes = 16 * sim::kMiB;
        heap = std::make_unique<heap::ManagedHeap>(cfg, klasses);
        heap->roots().clear();
        for (int i = 0; i < 32; ++i) {
            mem::Addr old = heap->allocOldObject(nodeId);
            mem::Addr young = heap->allocEden(nodeId);
            heap->storeRef(old, 0, young);
            heap->roots().push_back(old);
        }
    }
};

} // namespace

TEST(MetadataVerify, CleanHeapPassesBothAudits)
{
    CorruptionRig rig;
    auto cards = gc::verifyCardTable(*rig.heap);
    EXPECT_TRUE(cards.ok()) << cards.str();
    EXPECT_GT(cards.checked, 0u);

    gc::populateMarkBitmaps(*rig.heap);
    auto bitmaps = gc::verifyMarkBitmaps(*rig.heap);
    EXPECT_TRUE(bitmaps.ok()) << bitmaps.str();
    EXPECT_GT(bitmaps.checked, 0u);
}

TEST(MetadataVerify, SeededCardFlipsAreDetected)
{
    CorruptionRig rig;
    sim::Rng rng(123);
    auto flips = flipCardBits(*rig.heap, rng, 8);
    EXPECT_EQ(flips, 8u);
    auto audit = gc::verifyCardTable(*rig.heap);
    EXPECT_FALSE(audit.ok());
    EXPECT_GT(audit.corrupt, 0u);
    EXPECT_FALSE(audit.findings.empty());
}

TEST(MetadataVerify, CleanCardOverOldToYoungRefIsDetected)
{
    // Whole-byte corruption yields a valid-looking encoding (kClean),
    // so the byte check passes — the old-to-young invariant is what
    // catches it.
    CorruptionRig rig;
    mem::Addr slot = rig.heap->refSlotAddr(rig.heap->roots()[0], 0);
    auto &cards = rig.heap->cardTable();
    cards.xorByte(cards.cardIndex(slot), 0xff); // dirty -> "clean"
    auto audit = gc::verifyCardTable(*rig.heap);
    EXPECT_FALSE(audit.ok());
}

TEST(MetadataVerify, SeededMarkBitmapFlipsAreDetected)
{
    CorruptionRig rig;
    gc::populateMarkBitmaps(*rig.heap);
    sim::Rng rng(123);
    auto flips = flipMarkBits(*rig.heap, rng, 8);
    EXPECT_EQ(flips, 8u);
    auto audit = gc::verifyMarkBitmaps(*rig.heap);
    EXPECT_FALSE(audit.ok());
    EXPECT_GT(audit.corrupt, 0u);
}

TEST(MetadataVerify, PlanLevelHeapFaultsApply)
{
    CorruptionRig rig;
    FaultPlan plan;
    plan.seed = 5;
    plan.specs.push_back(onePlan("card-flip:count=4").specs[0]);
    plan.specs.push_back(onePlan("mark-bitmap-flip:count=4").specs[0]);
    gc::populateMarkBitmaps(*rig.heap);
    EXPECT_EQ(applyHeapFaults(*rig.heap, plan), 8u);
    EXPECT_FALSE(gc::verifyCardTable(*rig.heap).ok());
    EXPECT_FALSE(gc::verifyMarkBitmaps(*rig.heap).ok());
}

// --- crash-isolated runner ------------------------------------------

namespace
{

harness::FunctionalRun
tinyRun()
{
    harness::FunctionalRun run;
    run.cubeShift = 26;
    run.gcsMinor = 7;
    run.gcsMajor = 2;
    run.allocatedBytes = 1234;
    run.mutatorInstructions = 5678;
    return run;
}

harness::Cell
customCell(const char *label, std::function<harness::FunctionalRun()> fn)
{
    harness::Cell c;
    c.replay = false;
    c.customRun = std::move(fn);
    c.label = label;
    return c;
}

} // namespace

TEST(IsolatedRunner, HangAndCrashAreQuarantinedOthersComplete)
{
    std::vector<harness::Cell> cells;
    cells.push_back(customCell("good", [] { return tinyRun(); }));
    cells.push_back(customCell("hung", []() -> harness::FunctionalRun {
        std::this_thread::sleep_for(std::chrono::seconds(30));
        return {};
    }));
    cells.push_back(
        customCell("crashing", []() -> harness::FunctionalRun {
            std::abort();
        }));
    cells.push_back(
        customCell("exiting", []() -> harness::FunctionalRun {
            std::_Exit(3);
        }));

    harness::RunnerConfig cfg{4, std::string()};
    cfg.cellTimeoutSec = 1.0;
    cfg.cellRetries = 0;
    harness::ExperimentRunner runner(cfg);
    auto results = runner.run(cells);
    ASSERT_EQ(results.size(), cells.size());

    // The healthy cell's result crossed the pipe intact.
    ASSERT_TRUE(results[0].ok) << results[0].error;
    ASSERT_TRUE(results[0].run);
    EXPECT_EQ(results[0].run->gcsMinor, 7u);
    EXPECT_EQ(results[0].run->gcsMajor, 2u);
    EXPECT_EQ(results[0].run->mutatorInstructions, 5678u);

    EXPECT_FALSE(results[1].ok);
    EXPECT_NE(results[1].error.find("timed out"), std::string::npos)
        << results[1].error;
    EXPECT_FALSE(results[2].ok);
    EXPECT_NE(results[2].error.find("signal"), std::string::npos)
        << results[2].error;
    EXPECT_FALSE(results[3].ok);
    EXPECT_NE(results[3].error.find("status 3"), std::string::npos)
        << results[3].error;

    // The report names every quarantined cell and exits non-zero.
    harness::Report report{harness::Options{}};
    for (std::size_t i = 0; i < cells.size(); ++i)
        report.checkCell(cells[i], results[i]);
    std::ostringstream os;
    EXPECT_EQ(report.finish(os), 1);
    EXPECT_NE(os.str().find("hung"), std::string::npos);
    EXPECT_NE(os.str().find("crashing"), std::string::npos);
    EXPECT_NE(os.str().find("exiting"), std::string::npos);
}

TEST(IsolatedRunner, RetriesThenQuarantines)
{
    int calls = 0; // parent-side copy is never mutated by the child
    std::vector<harness::Cell> cells;
    cells.push_back(
        customCell("always-crashing", [&]() -> harness::FunctionalRun {
            ++calls;
            std::abort();
        }));
    harness::RunnerConfig cfg{1, std::string()};
    cfg.cellTimeoutSec = 5.0;
    cfg.cellRetries = 2;
    harness::ExperimentRunner runner(cfg);
    auto results = runner.run(cells);
    EXPECT_FALSE(results[0].ok);
    EXPECT_NE(results[0].error.find("quarantined after 3 attempt"),
              std::string::npos)
        << results[0].error;
}

TEST(IsolatedRunner, RealCellsMatchInProcessResults)
{
    // The fork/pipe path must reproduce the in-process replay
    // bit-for-bit, including under an injected fault.
    harness::Cell clean = charonCell();
    harness::Cell faulted = charonCell();
    faulted.faults = onePlan("tsv-degrade:cube=0:factor=0.5");

    harness::ExperimentRunner inProcess(
        harness::RunnerConfig{2, std::string()});
    harness::RunnerConfig isoCfg{2, std::string()};
    isoCfg.cellTimeoutSec = 300.0;
    harness::ExperimentRunner isolated(isoCfg);

    auto a = inProcess.run({clean, faulted});
    auto b = isolated.run({clean, faulted});
    for (std::size_t i = 0; i < 2; ++i) {
        SCOPED_TRACE(i);
        ASSERT_TRUE(a[i].ok) << a[i].error;
        ASSERT_TRUE(b[i].ok) << b[i].error;
        EXPECT_EQ(a[i].timing.gcSeconds, b[i].timing.gcSeconds);
        EXPECT_EQ(a[i].timing.dramBytes, b[i].timing.dramBytes);
        EXPECT_EQ(a[i].timing.totalEnergyJ(),
                  b[i].timing.totalEnergyJ());
        EXPECT_EQ(a[i].run->gcsMinor, b[i].run->gcsMinor);
        // Every RunTiming field, each collection's unit-seconds (the
        // fleet arbiter's device demand) and roll-up included.
        test::expectTimingEq(a[i].timing, b[i].timing);
    }
}

TEST(IsolatedRunner, OptionsParseTimeoutAndRetries)
{
    harness::Options opt;
    const char *argv[] = {"bench", "--cell-timeout", "2.5",
                          "--cell-retries", "3"};
    ASSERT_TRUE(harness::parseOptions(5, const_cast<char **>(argv),
                                      opt));
    EXPECT_DOUBLE_EQ(opt.cellTimeoutSec, 2.5);
    EXPECT_EQ(opt.cellRetries, 3);
    auto cfg = opt.runnerConfig();
    EXPECT_DOUBLE_EQ(cfg.cellTimeoutSec, 2.5);
    EXPECT_EQ(cfg.cellRetries, 3);
}

// --- sweep journal durability ---------------------------------------

namespace
{

dse::JournalRecord
journalRecord(const std::string &key)
{
    dse::JournalRecord rec;
    rec.key = key;
    rec.ok = true;
    rec.gcSeconds = 1.5;
    rec.minorSeconds = 1.0;
    rec.majorSeconds = 0.5;
    rec.mutatorSeconds = 2.0;
    rec.avgGcBandwidthGBs = 10;
    rec.localAccessFraction = 0.5;
    rec.dramBytes = 4096;
    rec.hostEnergyJ = 1;
    rec.dramEnergyJ = 2;
    rec.unitEnergyJ = 3;
    return rec;
}

} // namespace

TEST(SweepJournal, KilledMidWriteKeepsCompletedCells)
{
    const std::string path = freshPath("journal-kill");
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: journal two complete cells, then die mid-append of a
        // third (simulated by a raw partial line, as if SIGKILL
        // landed inside write(2)) without running any destructor.
        dse::SweepJournal journal(path);
        journal.append(journalRecord("cell-a"));
        journal.append(journalRecord("cell-b"));
        {
            std::ofstream f(path, std::ios::app | std::ios::binary);
            f << "{\"v\":1,\"key\":\"cell-c\",\"ok\":tr";
        }
        std::_Exit(0);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

    // Reload: both completed cells survive, the torn line is a miss.
    dse::SweepJournal journal(path);
    EXPECT_EQ(journal.size(), 2u);
    dse::JournalRecord out;
    EXPECT_TRUE(journal.lookup("cell-a", out));
    EXPECT_DOUBLE_EQ(out.gcSeconds, 1.5);
    EXPECT_TRUE(journal.lookup("cell-b", out));
    EXPECT_FALSE(journal.lookup("cell-c", out));

    // Appending over the torn tail repairs it: a fresh load sees all
    // three records.
    EXPECT_TRUE(journal.append(journalRecord("cell-d")));
    dse::SweepJournal reload(path);
    EXPECT_EQ(reload.size(), 3u);
    EXPECT_TRUE(reload.lookup("cell-d", out));
}

TEST(SweepJournal, RecordFormatRoundTrips)
{
    auto rec = journalRecord("k|1");
    rec.oom = true;
    rec.error = "line1\nline\"2\"";
    dse::JournalRecord out;
    ASSERT_TRUE(
        dse::SweepJournal::parseLine(dse::SweepJournal::formatLine(rec),
                                     out));
    EXPECT_EQ(out.key, rec.key);
    EXPECT_EQ(out.oom, rec.oom);
    EXPECT_EQ(out.error, rec.error);
    EXPECT_DOUBLE_EQ(out.unitEnergyJ, rec.unitEnergyJ);
}

TEST(SweepJournal, SignalInterruptStopsSweepAtBatchBoundary)
{
    // installSignalFlush turns SIGINT into a flag ...
    dse::SweepJournal::installSignalFlush();
    EXPECT_FALSE(dse::SweepJournal::interrupted());
    ASSERT_EQ(::raise(SIGINT), 0);
    EXPECT_TRUE(dse::SweepJournal::interrupted());

    // ... and the explorer refuses to start a fresh batch: the cell
    // below would crash if executed (no such workload).
    dse::SweepJournal journal{std::string()};
    harness::ExperimentRunner runner(
        harness::RunnerConfig{1, std::string()});
    dse::Explorer explorer(runner, journal);
    harness::Cell cell;
    cell.key.workload = "no-such-workload";
    EXPECT_THROW(explorer.runCells({cell}, {"key"}),
                 dse::SweepInterrupted);
}
