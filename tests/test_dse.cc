/**
 * @file
 * Design-space explorer tests: deterministic parameter-space
 * enumeration, journal durability (resume after a kill, torn final
 * line tolerated as a miss), Pareto extraction on hand-built
 * objective sets, journal-first cell evaluation, the Figure 13 and 15
 * renders on hand-built records, and the pinned smoke-grid Pareto
 * golden (regenerate after intended model changes with
 * CHARON_UPDATE_GOLDEN=1; see EXPERIMENTS.md).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "dse/explorer.hh"
#include "dse/journal.hh"
#include "dse/objective.hh"
#include "dse/param_space.hh"
#include "dse/presets.hh"
#include "gc/trace_io.hh"
#include "harness/experiment_runner.hh"
#include "scratch_dir.hh"

using namespace charon;
using namespace charon::dse;

namespace
{

using test::freshDir;

// ---------------------------------------------------------------------
// ParamSpace

TEST(ParamSpace, EnumerationIsDeterministicCartesianOrder)
{
    ParamSpace space;
    ASSERT_TRUE(space.axis("units", {"2", "4"}));
    ASSERT_TRUE(space.axis("offload-threshold", {"0", "256", "4096"}));
    EXPECT_EQ(space.size(), 6u);

    auto a = space.enumerate();
    auto b = space.enumerate();
    ASSERT_EQ(a.size(), 6u);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].str(), b[i].str()) << "index " << i;

    // Last axis fastest: thresholds cycle within one unit count.
    EXPECT_EQ(a[0].copySearchUnits, 2);
    EXPECT_EQ(a[0].copyOffloadThreshold, 0u);
    EXPECT_EQ(a[1].copyOffloadThreshold, 256u);
    EXPECT_EQ(a[2].copyOffloadThreshold, 4096u);
    EXPECT_EQ(a[3].copySearchUnits, 4);
    EXPECT_EQ(a[3].copyOffloadThreshold, 0u);

    // "units" fans out to all three unit kinds.
    EXPECT_EQ(a[0].bitmapCountUnits, 2);
    EXPECT_EQ(a[0].scanPushUnits, 2);
}

TEST(ParamSpace, PointIdentityCoversEveryAxis)
{
    // Two points differing in any single axis must have distinct
    // str() forms — the journal and reports key on it.
    ParamSpace space;
    ASSERT_TRUE(space.axisSpec("workload=KM,CC"));
    ASSERT_TRUE(space.axisSpec("gc-threads=4,8"));
    ASSERT_TRUE(space.axisSpec("tsv-gbs=160,320"));
    ASSERT_TRUE(space.axisSpec("distributed=0,1"));
    auto points = space.enumerate();
    std::set<std::string> ids;
    for (const auto &p : points)
        ids.insert(p.str());
    EXPECT_EQ(ids.size(), points.size());
}

TEST(ParamSpace, RejectsUnknownAxesAndBadValues)
{
    ParamSpace space;
    std::string error;
    EXPECT_FALSE(space.axis("warp-factor", {"9"}, &error));
    EXPECT_NE(error.find("warp-factor"), std::string::npos);
    EXPECT_FALSE(space.axis("units", {"4", "banana"}, &error));
    EXPECT_NE(error.find("banana"), std::string::npos);
    EXPECT_FALSE(space.axis("units", {}, &error));
    EXPECT_FALSE(space.axisSpec("no-equals-sign", &error));
    EXPECT_FALSE(space.axisSpec("workload=XX", &error));
    // Nothing registered by the failures.
    EXPECT_TRUE(space.axes().empty());
    EXPECT_EQ(space.size(), 1u);
}

TEST(ParamSpace, WorkloadAxisCanonicalizesCase)
{
    ParamSpace space;
    ASSERT_TRUE(space.axisSpec("workload=km"));
    auto points = space.enumerate();
    ASSERT_EQ(points.size(), 1u);
    EXPECT_EQ(points[0].workload, "KM");
}

TEST(ParamSpace, BackendTokenOmittedOnDefaultForJournalBackCompat)
{
    // The exact default identity every pre-backend-axis journal was
    // written under.  If this literal ever changes, old sweeps stop
    // resuming — bump it only with a migration story.
    EXPECT_EQ(DsePoint().str(),
              "KM/h0/s1/t8/c4/ct256/cs8/bc8/sp8/tsv320/link80/uni");

    // Off-default backends are tagged; re-selecting the default adds
    // nothing, so nmp sweeps keep hitting legacy records too.
    std::string error;
    DsePoint p;
    ASSERT_TRUE(applyAxisValue(p, "backend", "nmp", &error)) << error;
    EXPECT_EQ(p.str(), DsePoint().str());
    ASSERT_TRUE(applyAxisValue(p, "backend", "igpu", &error)) << error;
    EXPECT_NE(p.str().find("/bk-igpu/"), std::string::npos) << p.str();
    ASSERT_TRUE(applyAxisValue(p, "backend", "cxl", &error)) << error;
    EXPECT_NE(p.str().find("/bk-cxl/"), std::string::npos);
    ASSERT_TRUE(applyAxisValue(p, "backend", "host", &error)) << error;
    EXPECT_NE(p.str().find("/bk-host/"), std::string::npos);
    EXPECT_FALSE(applyAxisValue(p, "backend", "fpga", &error));
}

TEST(ParamSpace, FleetAxesOmittedOnDefaultForJournalBackCompat)
{
    // The fleet axes (tenants / arb / slo-ms) follow the same
    // off-default-only emission rule as the backend axis: a default
    // point's identity is unchanged, so pre-fleet journals resume
    // with zero re-evaluated cells.
    EXPECT_EQ(DsePoint().str(),
              "KM/h0/s1/t8/c4/ct256/cs8/bc8/sp8/tsv320/link80/uni");

    std::string error;
    DsePoint p;
    ASSERT_TRUE(applyAxisValue(p, "tenants", "0", &error)) << error;
    ASSERT_TRUE(applyAxisValue(p, "arb", "fcfs", &error)) << error;
    ASSERT_TRUE(applyAxisValue(p, "slo-ms", "0", &error)) << error;
    EXPECT_EQ(p.str(), DsePoint().str());

    ASSERT_TRUE(applyAxisValue(p, "tenants", "6", &error)) << error;
    EXPECT_NE(p.str().find("/ft6/"), std::string::npos) << p.str();
    ASSERT_TRUE(applyAxisValue(p, "arb", "deadline", &error)) << error;
    EXPECT_NE(p.str().find("/arb-deadline/"), std::string::npos);
    ASSERT_TRUE(applyAxisValue(p, "slo-ms", "2.5", &error)) << error;
    EXPECT_NE(p.str().find("/slo2.5/"), std::string::npos);

    // Bad values are rejected at registration, not mid-sweep.
    EXPECT_FALSE(applyAxisValue(p, "arb", "lifo", &error));
    EXPECT_FALSE(applyAxisValue(p, "tenants", "65", &error));
    EXPECT_FALSE(applyAxisValue(p, "slo-ms", "-1", &error));
}

TEST(PersistedForms, CollectorValuesAndTokensNeverMove)
{
    // Trace-cache headers store each family's enum value; cache keys
    // and journal keys spell its token.  Reordering the enum or
    // renaming a token would silently orphan every cache entry and
    // journal record of the families it moved.
    struct Family
    {
        gc::CollectorModel model;
        std::uint64_t headerValue;
        const char *token;
    };
    const Family families[] = {
        {gc::CollectorModel::ParallelScavenge, 0, "ps"},
        {gc::CollectorModel::G1, 1, "g1"},
        {gc::CollectorModel::Cms, 2, "cms"},
        {gc::CollectorModel::Rc, 3, "rc"},
    };
    harness::TraceCache cache(freshDir("persisted-forms"));
    for (const auto &f : families) {
        SCOPED_TRACE(f.token);
        harness::FunctionalKey key;
        key.workload = "KM";
        key.collector = f.model;
        key.heapBytes = 64 * sim::kMiB;
        EXPECT_EQ(key.str(), std::string("KM/") + f.token
                                 + "/h67108864/s1/t8/c4/ct256");

        // Header: magic, format version, workload, collector.
        ASSERT_TRUE(cache.store(key, harness::FunctionalRun{}));
        std::ifstream is(cache.path(key), std::ios::binary);
        char magic[8];
        std::uint64_t version = 0, collector = 99;
        std::string workload;
        ASSERT_TRUE(is.read(magic, sizeof(magic)));
        ASSERT_TRUE(gc::io::getU64(is, version));
        ASSERT_TRUE(gc::io::getString(is, workload));
        ASSERT_TRUE(gc::io::getU64(is, collector));
        EXPECT_EQ(collector, f.headerValue);

        // The DSE axis parses the token; the journal key carries it
        // off the default family only.
        std::string error;
        DsePoint p;
        ASSERT_TRUE(applyAxisValue(p, "collector", f.token, &error))
            << error;
        EXPECT_EQ(p.collector, f.model);
        if (f.model == gc::CollectorModel::ParallelScavenge) {
            EXPECT_EQ(p.str(), DsePoint().str());
        }
    }
    DsePoint g1;
    g1.collector = gc::CollectorModel::G1;
    EXPECT_EQ(g1.str(),
              "KM/g1/h0/s1/t8/c4/ct256/cs8/bc8/sp8/tsv320/link80/uni");
}

TEST(ParamSpace, ServiceWorkloadsAreValidAxisValues)
{
    ParamSpace space;
    ASSERT_TRUE(space.axisSpec("workload=srv,ses"));
    auto points = space.enumerate();
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].workload, "SRV");
    EXPECT_EQ(points[1].workload, "SES");
}

TEST(ParamSpace, SampleIsSeededSubsetInEnumerationOrder)
{
    ParamSpace space;
    ASSERT_TRUE(space.axisSpec("units=1,2,3,4,5"));
    ASSERT_TRUE(space.axisSpec("gc-threads=1,2,4,8"));
    auto all = space.enumerate();

    auto s1 = space.sample(7, 42);
    auto s2 = space.sample(7, 42);
    ASSERT_EQ(s1.size(), 7u);
    for (std::size_t i = 0; i < s1.size(); ++i)
        EXPECT_EQ(s1[i].str(), s2[i].str());

    // Members come from the full set, distinct, in enumeration order.
    std::size_t cursor = 0;
    for (const auto &p : s1) {
        while (cursor < all.size() && all[cursor].str() != p.str())
            ++cursor;
        ASSERT_LT(cursor, all.size())
            << p.str() << " not found in enumeration order";
        ++cursor;
    }

    // A different seed picks a different subset (overwhelmingly).
    auto s3 = space.sample(7, 43);
    bool anyDiff = false;
    for (std::size_t i = 0; i < s1.size(); ++i)
        anyDiff |= s1[i].str() != s3[i].str();
    EXPECT_TRUE(anyDiff);

    // Oversampling degrades to the full enumeration.
    auto s4 = space.sample(1000, 7);
    EXPECT_EQ(s4.size(), all.size());
}

// ---------------------------------------------------------------------
// SweepJournal

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

TEST(SweepJournal, FormatParseRoundTripIsExact)
{
    // An awkward double: %.17g must reproduce the very same bits.
    JournalRecord r = sampleRecord("c1|KM/ps|...|g0", 1.0);
    r.gcSeconds = 0.1 + 0.2; // 0.30000000000000004
    r.avgGcBandwidthGBs = 1.0 / 3.0;
    r.error = "quote \" backslash \\ newline \n done";
    r.oom = true;

    JournalRecord out;
    ASSERT_TRUE(SweepJournal::parseLine(SweepJournal::formatLine(r),
                                        out));
    EXPECT_EQ(out.key, r.key);
    EXPECT_EQ(out.ok, r.ok);
    EXPECT_EQ(out.oom, r.oom);
    EXPECT_EQ(out.error, r.error);
    EXPECT_EQ(out.gcSeconds, r.gcSeconds); // bitwise, not approx
    EXPECT_EQ(out.avgGcBandwidthGBs, r.avgGcBandwidthGBs);
    EXPECT_EQ(out.dramBytes, r.dramBytes);
}

TEST(SweepJournal, ParseRejectsMalformedLines)
{
    JournalRecord out;
    EXPECT_FALSE(SweepJournal::parseLine("", out));
    EXPECT_FALSE(SweepJournal::parseLine("not json", out));
    EXPECT_FALSE(SweepJournal::parseLine("{\"v\":1}", out));
    // Torn mid-number and mid-string:
    std::string full = SweepJournal::formatLine(sampleRecord("k", 1));
    for (std::size_t cut : {full.size() - 1, full.size() / 2,
                            std::size_t{3}})
        EXPECT_FALSE(
            SweepJournal::parseLine(full.substr(0, cut), out))
            << "cut at " << cut;
    // Wrong version:
    std::string v2 = full;
    v2.replace(v2.find("\"v\":1"), 5, "\"v\":2");
    EXPECT_FALSE(SweepJournal::parseLine(v2, out));
}

TEST(SweepJournal, ResumeAfterKillTreatsTornTailAsMiss)
{
    const std::string path =
        freshDir("journal-torn") + "/sweep.dse.jsonl";
    {
        SweepJournal journal(path);
        ASSERT_TRUE(journal.append(sampleRecord("cell-a", 1)));
        ASSERT_TRUE(journal.append(sampleRecord("cell-b", 2)));
        ASSERT_TRUE(journal.append(sampleRecord("cell-c", 3)));
    }
    // Simulate a kill mid-append: chop the file mid-way through the
    // final record's line.
    auto size = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, size - 30);

    SweepJournal resumed(path);
    EXPECT_EQ(resumed.size(), 2u);
    JournalRecord out;
    EXPECT_TRUE(resumed.lookup("cell-a", out));
    EXPECT_EQ(out.gcSeconds, sampleRecord("cell-a", 1).gcSeconds);
    EXPECT_TRUE(resumed.lookup("cell-b", out));
    EXPECT_FALSE(resumed.lookup("cell-c", out)) << "torn line = miss";

    // Re-appending the missing record repairs the torn tail: the
    // next load sees all three, and no parse casualties.
    ASSERT_TRUE(resumed.append(sampleRecord("cell-c", 3)));
    SweepJournal reloaded(path);
    EXPECT_EQ(reloaded.size(), 3u);
    EXPECT_TRUE(reloaded.lookup("cell-c", out));
    EXPECT_EQ(out.gcSeconds, sampleRecord("cell-c", 3).gcSeconds);
}

TEST(SweepJournal, DisabledJournalMissesAndSwallowsAppends)
{
    SweepJournal journal{std::string()};
    EXPECT_FALSE(journal.enabled());
    EXPECT_TRUE(journal.append(sampleRecord("k", 1)));
    JournalRecord out;
    // In-memory memo still works within the process...
    EXPECT_TRUE(journal.lookup("k", out));
    // ...but nothing was written anywhere.
}

TEST(SweepJournal, LaterDuplicateWins)
{
    const std::string path =
        freshDir("journal-dup") + "/sweep.dse.jsonl";
    {
        SweepJournal journal(path);
        journal.append(sampleRecord("k", 1));
        journal.append(sampleRecord("k", 2));
    }
    SweepJournal reloaded(path);
    EXPECT_EQ(reloaded.size(), 1u);
    JournalRecord out;
    ASSERT_TRUE(reloaded.lookup("k", out));
    EXPECT_EQ(out.gcSeconds, sampleRecord("k", 2).gcSeconds);
}

// ---------------------------------------------------------------------
// Objectives / Pareto

TEST(Objective, DominanceIsStrictSomewhere)
{
    Objectives a{2.0, 1.0, 10.0};
    EXPECT_FALSE(dominates(a, a)) << "equal points do not dominate";
    EXPECT_TRUE(dominates(Objectives{2.5, 1.0, 10.0}, a));
    EXPECT_TRUE(dominates(Objectives{2.0, 0.5, 10.0}, a));
    EXPECT_TRUE(dominates(Objectives{2.0, 1.0, 9.0}, a));
    EXPECT_FALSE(dominates(Objectives{2.5, 1.5, 10.0}, a))
        << "better speedup but worse area is a trade, not dominance";
    EXPECT_FALSE(dominates(a, Objectives{2.5, 1.0, 10.0}));
}

TEST(Objective, FrontierOnHandBuiltSet)
{
    // Indices:       0: dominated by 1      1: frontier
    //                2: frontier (cheap)    3: dominated by 1 and 2
    //                4: frontier (fast)     5: duplicate of 2
    std::vector<Objectives> points = {
        {1.5, 2.0, 20.0}, {2.0, 2.0, 18.0}, {1.2, 0.5, 12.0},
        {1.1, 2.5, 25.0}, {3.0, 4.0, 30.0}, {1.2, 0.5, 12.0},
    };
    auto frontier = paretoFrontier(points);
    EXPECT_EQ(frontier, (std::vector<std::size_t>{1, 2, 4, 5}));

    // The knee balances all three normalized axes; here point 1 is
    // near-max speedup at mid area/energy.
    EXPECT_EQ(kneePoint(points, frontier), 1u);
}

TEST(Objective, SinglePointFrontier)
{
    std::vector<Objectives> points = {{1.0, 1.0, 1.0}};
    auto frontier = paretoFrontier(points);
    ASSERT_EQ(frontier.size(), 1u);
    EXPECT_EQ(kneePoint(points, frontier), 0u);
}

// ---------------------------------------------------------------------
// Explorer (journal-first evaluation; no simulation on full hits)

TEST(Explorer, JournalHitsShortCircuitSimulation)
{
    DsePoint point; // KM defaults
    auto fk = harness::ExperimentRunner::resolve(point.functionalKey());
    auto cfg = point.systemConfig();
    std::vector<harness::Cell> cells;
    std::vector<std::string> keys;
    for (auto kind : {sim::PlatformKind::HostDdr4,
                      sim::PlatformKind::CharonNmp}) {
        harness::Cell c;
        c.key = fk;
        c.platform = kind;
        c.config = cfg;
        cells.push_back(c);
        keys.push_back(cellKey(c, 0));
    }
    EXPECT_NE(keys[0], keys[1]) << "platform must enter the cell key";

    SweepJournal journal{std::string()};
    journal.append(sampleRecord(keys[0], 1));
    journal.append(sampleRecord(keys[1], 2));

    harness::ExperimentRunner runner(
        harness::RunnerConfig{1, std::string()});
    Explorer explorer(runner, journal);
    auto records = explorer.runCells(cells, keys);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(explorer.journalHits(), 2u);
    EXPECT_EQ(explorer.evaluatedCells(), 0u)
        << "full journal must mean zero simulated cells";
    EXPECT_EQ(records[0].gcSeconds, sampleRecord(keys[0], 1).gcSeconds);
    EXPECT_EQ(records[1].gcSeconds, sampleRecord(keys[1], 2).gcSeconds);
}

TEST(Explorer, LegacyJournalWithoutBackendTokensResumesClean)
{
    // A journal written before the backend axis existed holds cells
    // keyed on {DDR4, Charon} only.  Resuming the same sweep today
    // must replay entirely from that journal (0 evaluated cells),
    // and an igpu point must share the DDR4 baseline cell with the
    // default point instead of re-simulating it.
    DsePoint def; // pre-axis sweeps only ever produced this shape
    DsePoint ig = def;
    ig.backend = sim::PlatformKind::IgpuOffload;
    auto fk = harness::ExperimentRunner::resolve(def.functionalKey());

    auto makeCell = [&](const DsePoint &p, sim::PlatformKind kind) {
        harness::Cell c;
        c.key = fk;
        c.platform = kind;
        c.config = p.systemConfig();
        return c;
    };
    // Cells exactly as Explorer::evaluate lays them out: baseline
    // then offload, per point.
    std::vector<harness::Cell> cells = {
        makeCell(def, sim::PlatformKind::HostDdr4),
        makeCell(def, def.backend),
        makeCell(ig, sim::PlatformKind::HostDdr4),
        makeCell(ig, ig.backend),
    };
    std::vector<std::string> keys;
    for (const auto &c : cells)
        keys.push_back(cellKey(c, 0));

    // Legacy keys never carried a backend token, and the new ones
    // only differ by platform name — the baseline cell is shared.
    for (const auto &k : keys)
        EXPECT_EQ(k.find("bk-"), std::string::npos) << k;
    EXPECT_EQ(keys[0], keys[2]) << "igpu point must reuse the DDR4 "
                                   "baseline cell";
    EXPECT_NE(keys[1], keys[3]);

    // Seed the journal the way a pre-axis sweep left it, plus the
    // one genuinely new cell; resume must evaluate nothing.
    SweepJournal journal{std::string()};
    journal.append(sampleRecord(keys[0], 1));
    journal.append(sampleRecord(keys[1], 2));
    journal.append(sampleRecord(keys[3], 3));

    harness::ExperimentRunner runner(
        harness::RunnerConfig{1, std::string()});
    Explorer explorer(runner, journal);
    auto records = explorer.runCells(cells, keys);
    ASSERT_EQ(records.size(), 4u);
    EXPECT_EQ(explorer.journalHits(), 4u);
    EXPECT_EQ(explorer.evaluatedCells(), 0u)
        << "legacy journal plus the shared baseline must cover the "
           "whole grid";
    EXPECT_EQ(records[0].gcSeconds, records[2].gcSeconds);
    EXPECT_EQ(records[3].gcSeconds, sampleRecord(keys[3], 3).gcSeconds);

    // DDR4-backed offload backends prune HMC/Charon knobs exactly
    // like the host baseline: they are unobservable there.
    gc::TraceProfile scanPush;
    scanPush.offloadKinds = 1u << unsigned(gc::PrimKind::ScanPush);
    harness::Cell knob = cells[3];
    knob.config.charon.maiEntries = 99;
    knob.config.hmc.cubes = 16;
    EXPECT_EQ(canonicalCellKey(cells[3], 0, scanPush),
              canonicalCellKey(knob, 0, scanPush));
    harness::Cell cxl = cells[3];
    cxl.platform = sim::PlatformKind::CxlMsa;
    harness::Cell cxlKnob = knob;
    cxlKnob.platform = sim::PlatformKind::CxlMsa;
    EXPECT_EQ(canonicalCellKey(cxl, 0, scanPush),
              canonicalCellKey(cxlKnob, 0, scanPush));
    EXPECT_NE(canonicalCellKey(cells[3], 0, scanPush),
              canonicalCellKey(cxl, 0, scanPush))
        << "backends must not collide with each other";
}

TEST(Explorer, CellKeySeparatesConfigAndScreenDepth)
{
    DsePoint point;
    auto fk = harness::ExperimentRunner::resolve(point.functionalKey());
    harness::Cell c;
    c.key = fk;
    c.platform = sim::PlatformKind::CharonNmp;
    c.config = point.systemConfig();

    harness::Cell tsv = c;
    tsv.config.hmc.internalGBsPerCube = 640.0;
    harness::Cell units = c;
    units.config.charon.copySearchUnits = 2;
    EXPECT_NE(cellKey(c, 0), cellKey(tsv, 0));
    EXPECT_NE(cellKey(c, 0), cellKey(units, 0));
    EXPECT_NE(cellKey(c, 0), cellKey(c, 4))
        << "screened replays must not pollute full results";
    EXPECT_EQ(cellKey(c, 0), cellKey(c, 0));
}

// ---------------------------------------------------------------------
// Incremental recompute: canonical keys + cross-point record sharing

TEST(Explorer, CanonicalKeyPrunesWhatTheReplayCannotObserve)
{
    DsePoint point;
    auto fk = harness::ExperimentRunner::resolve(point.functionalKey());
    harness::Cell c;
    c.key = fk;
    c.config = point.systemConfig();
    gc::TraceProfile none; // no bucket ever carries work

    // DDR4 never constructs the HMC or the device: every hmc.* and
    // charon.* knob prunes away; gcThreads stays observable.
    c.platform = sim::PlatformKind::HostDdr4;
    harness::Cell v = c;
    v.config.hmc.cubes = 16;
    v.config.hmc.internalGBsPerCube = 640.0;
    v.config.charon.copySearchUnits = 1;
    v.config.charon.maiEntries = 99;
    EXPECT_EQ(canonicalCellKey(c, 0, none), canonicalCellKey(v, 0, none));
    harness::Cell t = c;
    t.config.gcThreads = 4;
    EXPECT_NE(canonicalCellKey(c, 0, none), canonicalCellKey(t, 0, none));
    EXPECT_NE(canonicalCellKey(c, 0, none), canonicalCellKey(c, 4, none))
        << "screen depth must stay in the canonical key";

    // Host-HMC builds the interconnect but never the device.
    c.platform = sim::PlatformKind::HostHmc;
    v = c;
    v.config.charon.copySearchUnits = 1;
    v.config.charon.maiEntries = 99;
    EXPECT_EQ(canonicalCellKey(c, 0, none), canonicalCellKey(v, 0, none));
    v = c;
    v.config.hmc.cubes = 16;
    EXPECT_NE(canonicalCellKey(c, 0, none), canonicalCellKey(v, 0, none));

    // Charon keeps hmc knobs and unit counts (idle units draw
    // energy); the structure knobs prune by what the trace can
    // actually dispatch.
    gc::TraceProfile copyOnly;
    copyOnly.offloadKinds = 1u << unsigned(gc::PrimKind::Copy);
    gc::TraceProfile scanPush;
    scanPush.offloadKinds = 1u << unsigned(gc::PrimKind::ScanPush);
    c.platform = sim::PlatformKind::CharonNmp;

    harness::Cell units = c;
    units.config.charon.bitmapCountUnits = 1;
    EXPECT_NE(canonicalCellKey(c, 0, none),
              canonicalCellKey(units, 0, none));

    harness::Cell mai = c;
    mai.config.charon.maiEntries = 99;
    EXPECT_EQ(canonicalCellKey(c, 0, none), canonicalCellKey(mai, 0, none))
        << "no offload-eligible work: maiEntries is unobservable";
    EXPECT_NE(canonicalCellKey(c, 0, copyOnly),
              canonicalCellKey(mai, 0, copyOnly))
        << "any offload work reads the MAI";

    harness::Cell dist = c;
    dist.config.charon.distributedStructures =
        !c.config.charon.distributedStructures;
    EXPECT_EQ(canonicalCellKey(c, 0, copyOnly),
              canonicalCellKey(dist, 0, copyOnly))
        << "Copy never consults distributedStructures";
    EXPECT_NE(canonicalCellKey(c, 0, scanPush),
              canonicalCellKey(dist, 0, scanPush));

    harness::Cell spl = c;
    spl.config.charon.scanPushLocal = !c.config.charon.scanPushLocal;
    EXPECT_EQ(canonicalCellKey(c, 0, copyOnly),
              canonicalCellKey(spl, 0, copyOnly));
    EXPECT_NE(canonicalCellKey(c, 0, scanPush),
              canonicalCellKey(spl, 0, scanPush));

    // The families can never collide inside one journal.
    EXPECT_EQ(canonicalCellKey(c, 0, scanPush).rfind("i1|", 0), 0u);
    EXPECT_EQ(cellKey(c, 0).rfind("c1|", 0), 0u);
}

TEST(Explorer, PrunedKnobSweepSimulatesOnceAndShares)
{
    // Three DDR4 cells differing only in a device knob the baseline
    // replay cannot observe: distinct primary keys, one canonical
    // key.  The sweep must cost one simulation, and every record it
    // produces must land under its primary key so resumed sweeps
    // never need the incremental pass again.
    const std::string path =
        freshDir("incremental") + "/sweep.dse.jsonl";
    DsePoint point;
    auto fk = harness::ExperimentRunner::resolve(point.functionalKey());
    std::vector<harness::Cell> cells;
    std::vector<std::string> keys;
    for (int units : {2, 4, 8}) {
        harness::Cell c;
        c.key = fk;
        c.platform = sim::PlatformKind::HostDdr4;
        c.config = point.systemConfig();
        c.config.charon.copySearchUnits = units;
        keys.push_back(cellKey(c, 0));
        cells.push_back(std::move(c));
    }
    EXPECT_NE(keys[0], keys[1]) << "primary keys see the pruned knob";

    {
        SweepJournal journal(path);
        harness::ExperimentRunner runner(
            harness::RunnerConfig{1, std::string()});
        Explorer explorer(runner, journal);
        auto records = explorer.runCells(cells, keys);
        ASSERT_EQ(records.size(), 3u);
        EXPECT_EQ(explorer.journalHits(), 0u);
        EXPECT_EQ(explorer.evaluatedCells(), 1u)
            << "the N-point pruned-knob sweep must replay once";
        EXPECT_EQ(explorer.incrementalHits(), 2u);
        for (std::size_t i = 0; i < records.size(); ++i) {
            ASSERT_TRUE(records[i].ok) << records[i].error;
            EXPECT_EQ(records[i].key, keys[i]);
            // Shared records are bitwise copies of the one replay.
            EXPECT_EQ(records[i].gcSeconds, records[0].gcSeconds);
            EXPECT_EQ(records[i].hostEnergyJ, records[0].hostEnergyJ);
            EXPECT_EQ(records[i].dramBytes, records[0].dramBytes);
        }
    }

    // Resume path: a fresh journal answers every cell from its
    // primary key — plus a brand-new sibling from the canonical
    // record, still with zero fresh simulation.
    {
        harness::Cell extra = cells[0];
        extra.config.charon.copySearchUnits = 16;
        auto extraCells = cells;
        auto extraKeys = keys;
        extraCells.push_back(extra);
        extraKeys.push_back(cellKey(extra, 0));

        SweepJournal resumed(path);
        harness::ExperimentRunner runner(
            harness::RunnerConfig{1, std::string()});
        Explorer explorer(runner, resumed);
        auto records = explorer.runCells(extraCells, extraKeys);
        ASSERT_EQ(records.size(), 4u);
        EXPECT_EQ(explorer.journalHits(), 3u)
            << "re-homed records must hit on the primary path";
        EXPECT_EQ(explorer.incrementalHits(), 1u);
        EXPECT_EQ(explorer.evaluatedCells(), 0u);
        EXPECT_EQ(records[3].gcSeconds, records[0].gcSeconds);
        EXPECT_EQ(records[3].key, extraKeys[3]);
    }
}

// ---------------------------------------------------------------------
// Figures 13 and 15, rendered from hand-built records: no simulation.

/** A record whose fields differ from each other and from the same
 *  field of every other @p i, so a render that reads the wrong field
 *  or the wrong cell prints other text. */
JournalRecord
distinctRecord(const std::string &key, int i)
{
    JournalRecord r;
    r.key = key;
    r.ok = true;
    r.gcSeconds = 1 + 0.25 * i;
    r.minorSeconds = 100 + i;
    r.majorSeconds = 200 + i;
    r.mutatorSeconds = 300 + i;
    r.avgGcBandwidthGBs = 400.375 + i;
    r.localAccessFraction = 0.5 + 0.01 * i;
    r.dramBytes = 1e9 + i;
    r.hostEnergyJ = 500 + i;
    r.dramEnergyJ = 600 + i;
    r.unitEnergyJ = 700 + i;
    return r;
}

std::vector<JournalRecord>
distinctRecords(const std::vector<std::string> &keys)
{
    std::vector<JournalRecord> records;
    for (std::size_t i = 0; i < keys.size(); ++i)
        records.push_back(distinctRecord(keys[i], int(i)));
    return records;
}

/** What toRecord() makes of a failed cell. */
JournalRecord
failedRecord(const std::string &key, bool oom, const std::string &error)
{
    JournalRecord r;
    r.key = key;
    r.oom = oom;
    r.error = error;
    return r;
}

/**
 * Both figures into one report, as text (@p csv false) or CSV, with
 * Figure 13's KM-on-HMC cell failed and Figure 15's last cell (CC, 16
 * threads, distributed) out of memory.  Returns Report::finish's exit
 * code.
 */
int
renderFigures(bool csv, std::string &out)
{
    harness::Options opt;
    opt.csv = csv;
    harness::Report report(opt);

    auto fig13 = fig13Cells();
    auto records13 = distinctRecords(fig13.keys);
    EXPECT_EQ(fig13.cells[4].label, "KM on HMC");
    records13[4] = failedRecord(fig13.keys[4], false, "replay threw");
    renderFig13(report, fig13.cells, records13);

    auto fig15 = fig15Cells();
    auto records15 = distinctRecords(fig15.keys);
    EXPECT_EQ(fig15.cells.back().label, "CC on Charon (distributed)");
    records15.back() = failedRecord(fig15.keys.back(), true, "OOM");
    renderFig15(report, fig15.cells, records15);

    std::ostringstream os;
    int rc = report.finish(os);
    out = os.str();
    return rc;
}

TEST(FigureRender, LookupServesBothFigures)
{
    ASSERT_NE(findFigure("fig13"), nullptr);
    EXPECT_EQ(findFigure("fig13")->cells, fig13Cells);
    EXPECT_EQ(findFigure("fig13")->render, renderFig13);
    ASSERT_NE(findFigure("fig15"), nullptr);
    EXPECT_EQ(findFigure("fig15")->cells, fig15Cells);
    EXPECT_EQ(findFigure("fig15")->render, renderFig15);
    EXPECT_EQ(findFigure("smoke"), nullptr);
    EXPECT_EQ(findFigure(""), nullptr);
}

TEST(FigureRender, AlignedTextIsPinned)
{
    std::string text;
    // A failed cell that is not an OOM fails the run.
    EXPECT_EQ(renderFigures(false, text), 1);
    EXPECT_EQ(text,
              "\n"
              "== Figure 13: bandwidth utilized during GC and Charon's "
              "local-access ratio ==\n"
              "\n"
              "workload  DDR4 GB/s  HMC GB/s  Charon GB/s  local  remote\n"
              "---------------------------------------------------------\n"
              "BS            400.4     401.4        402.4    52%     48%\n"
              "LR            406.4     407.4        408.4    58%     42%\n"
              "CC            409.4     410.4        411.4    61%     39%\n"
              "PR            412.4     413.4        414.4    64%     36%\n"
              "ALS           415.4     416.4        417.4    67%     33%\n"
              "\n"
              "off-chip limits: DDR4 34 GB/s, HMC links 80 GB/s; Charon "
              "internal peak 4 x 320 GB/s\n"
              "paper: >70% local for most workloads; LR and CC closer to ~50%\n"
              "\n"
              "\n"
              "== Figure 15 (KM): GC throughput scalability (normalized to 1 "
              "thread) ==\n"
              "\n"
              "threads   DDR4  Charon unified  Charon distributed\n"
              "--------------------------------------------------\n"
              "1        1.00x           1.00x               1.00x\n"
              "2        0.57x           0.62x               0.67x\n"
              "4        0.40x           0.45x               0.50x\n"
              "8        0.31x           0.36x               0.40x\n"
              "16       0.25x           0.29x               0.33x\n"
              "\n"
              "\n"
              "== Figure 15 (CC): GC throughput scalability (normalized to 1 "
              "thread) ==\n"
              "\n"
              "threads   DDR4  Charon unified  Charon distributed\n"
              "--------------------------------------------------\n"
              "1        1.00x           1.00x               1.00x\n"
              "2        0.86x           0.87x               0.88x\n"
              "4        0.76x           0.77x               0.78x\n"
              "8        0.68x           0.69x               0.70x\n"
              "\n"
              "paper: DDR4 hardly scales (34 GB/s cap); Charon scales with "
              "internal bandwidth; distributed structures scale best\n"
              "\n"
              "2 cell(s) failed and were excluded from the aggregates:\n"
              "  - KM on HMC: replay threw\n"
              "  - CC on Charon (distributed): OOM\n");
}

TEST(FigureRender, CsvTextIsPinned)
{
    std::string text;
    EXPECT_EQ(renderFigures(true, text), 1);
    EXPECT_EQ(text,
              "# fig13: Figure 13: bandwidth utilized during GC and Charon's "
              "local-access ratio\n"
              "workload,DDR4 GB/s,HMC GB/s,Charon GB/s,local,remote\n"
              "BS,400.4,401.4,402.4,52%,48%\n"
              "LR,406.4,407.4,408.4,58%,42%\n"
              "CC,409.4,410.4,411.4,61%,39%\n"
              "PR,412.4,413.4,414.4,64%,36%\n"
              "ALS,415.4,416.4,417.4,67%,33%\n"
              "# fig15.KM: Figure 15 (KM): GC throughput scalability "
              "(normalized to 1 thread)\n"
              "threads,DDR4,Charon unified,Charon distributed\n"
              "1,1.00x,1.00x,1.00x\n"
              "2,0.57x,0.62x,0.67x\n"
              "4,0.40x,0.45x,0.50x\n"
              "8,0.31x,0.36x,0.40x\n"
              "16,0.25x,0.29x,0.33x\n"
              "# fig15.CC: Figure 15 (CC): GC throughput scalability "
              "(normalized to 1 thread)\n"
              "threads,DDR4,Charon unified,Charon distributed\n"
              "1,1.00x,1.00x,1.00x\n"
              "2,0.86x,0.87x,0.88x\n"
              "4,0.76x,0.77x,0.78x\n"
              "8,0.68x,0.69x,0.70x\n"
              "# failed-cell: KM on HMC: replay threw\n"
              "# failed-cell: CC on Charon (distributed): OOM\n");
}

// ---------------------------------------------------------------------
// Golden guard: the smoke grid's Pareto CSV is pinned.

std::string
goldenPath()
{
    return std::string(CHARON_GOLDEN_DIR) + "/dse_pareto_golden.csv";
}

constexpr double kRelTol = 1e-6;

struct CsvRow
{
    std::string point;
    double speedup = 0, gcMs = 0, energyJ = 0, areaMm2 = 0;
    int knee = 0;
};

std::vector<CsvRow>
parseCsv(const std::string &text)
{
    std::vector<CsvRow> rows;
    std::istringstream is(text);
    std::string line;
    std::getline(is, line); // header
    EXPECT_EQ(line, "point,speedup,gc_ms,energy_j,area_mm2,knee");
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        std::istringstream ls(line);
        CsvRow row;
        std::string field;
        std::getline(ls, row.point, ',');
        std::getline(ls, field, ',');
        row.speedup = std::strtod(field.c_str(), nullptr);
        std::getline(ls, field, ',');
        row.gcMs = std::strtod(field.c_str(), nullptr);
        std::getline(ls, field, ',');
        row.energyJ = std::strtod(field.c_str(), nullptr);
        std::getline(ls, field, ',');
        row.areaMm2 = std::strtod(field.c_str(), nullptr);
        std::getline(ls, field, ',');
        row.knee = std::atoi(field.c_str());
        rows.push_back(row);
    }
    return rows;
}

::testing::AssertionResult
relNear(const char *what, double actual, double golden)
{
    double scale = std::max({1.0, std::abs(actual), std::abs(golden)});
    if (std::abs(actual - golden) <= kRelTol * scale)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << what << ": actual " << actual << " vs golden " << golden
           << " (outside rel tol 1e-6).  If the timing model changed "
              "intentionally, regenerate with CHARON_UPDATE_GOLDEN=1 "
              "(see EXPERIMENTS.md).";
}

TEST(DseGolden, SmokeGridParetoMatchesGolden)
{
    // No journal, no trace cache: the golden must not depend on any
    // persisted state.
    SweepJournal journal{std::string()};
    harness::ExperimentRunner runner(
        harness::RunnerConfig{0, std::string()});
    Explorer explorer(runner, journal);
    auto evals = explorer.evaluate(smokeSpace().enumerate());
    for (const auto &e : evals)
        ASSERT_TRUE(e.ok) << e.point.str() << ": " << e.error;
    auto summary = summarize(evals);
    ASSERT_TRUE(summary.valid);
    const std::string csv = paretoCsvText(evals, summary);

    if (std::getenv("CHARON_UPDATE_GOLDEN") != nullptr) {
        std::ofstream os(goldenPath(), std::ios::binary);
        ASSERT_TRUE(os) << "cannot write " << goldenPath();
        os << csv;
        std::printf("golden file updated: %s\n", goldenPath().c_str());
        return;
    }

    std::ifstream is(goldenPath(), std::ios::binary);
    ASSERT_TRUE(is) << "missing " << goldenPath()
                    << "; generate with CHARON_UPDATE_GOLDEN=1";
    std::stringstream ss;
    ss << is.rdbuf();
    auto golden = parseCsv(ss.str());
    auto actual = parseCsv(csv);
    ASSERT_EQ(actual.size(), golden.size())
        << "frontier membership changed; regenerate the golden file "
           "if intended";
    for (std::size_t i = 0; i < actual.size(); ++i) {
        SCOPED_TRACE(actual[i].point);
        EXPECT_EQ(actual[i].point, golden[i].point);
        EXPECT_TRUE(relNear("speedup", actual[i].speedup,
                            golden[i].speedup));
        EXPECT_TRUE(relNear("gc_ms", actual[i].gcMs, golden[i].gcMs));
        EXPECT_TRUE(relNear("energy_j", actual[i].energyJ,
                            golden[i].energyJ));
        EXPECT_TRUE(relNear("area_mm2", actual[i].areaMm2,
                            golden[i].areaMm2));
        EXPECT_EQ(actual[i].knee, golden[i].knee);
    }
}

} // namespace
