/**
 * @file
 * Golden-figure regression tests: two small workloads replayed on the
 * DDR4 baseline and on Charon through the ExperimentRunner, with GC
 * seconds, the per-primitive breakdown, and the Charon speedup
 * asserted against checked-in golden numbers.
 *
 * The simulator is deterministic, so these catch any unintended
 * timing drift — a perturbed cost constant, a changed contention
 * model — the moment it lands.  After an *intended* model change,
 * regenerate the numbers and commit them with the change:
 *
 *     CHARON_UPDATE_GOLDEN=1 build/tests/test_golden_figures
 *
 * (see EXPERIMENTS.md for the full procedure).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "json_mini.hh"
#include "harness/experiment_runner.hh"
#include "workload/catalog.hh"

using namespace charon;
using namespace charon::harness;

namespace
{

/** The golden directory is baked in at compile time (source tree). */
std::string
goldenPath()
{
    return std::string(CHARON_GOLDEN_DIR) + "/fig12_golden.json";
}

/** Goldens for the newly-offloadable collector zoo (G1, CMS, RC). */
std::string
zooGoldenPath()
{
    return std::string(CHARON_GOLDEN_DIR) + "/zoo_golden.json";
}

constexpr double kRelTol = 1e-6;

struct CellMetrics
{
    std::string label;
    double gcSeconds = 0;
    double minorSeconds = 0;
    double majorSeconds = 0;
    double copy = 0;
    double search = 0;
    double scanPush = 0;
    double bitmapCount = 0;
    /** Only serialized in the zoo golden (always 0 on the fig12
     *  grid, whose file format predates these primitives). */
    double bitSweep = 0;
    double refCount = 0;
    double glue = 0;
};

struct Golden
{
    std::vector<CellMetrics> cells;
    std::vector<std::pair<std::string, double>> speedups;
};

/** The cell grid: two cheap workloads x (DDR4 baseline, Charon). */
std::vector<Cell>
goldenCells()
{
    std::vector<Cell> cells;
    for (const char *name : {"CC", "ALS"}) {
        std::uint64_t heap =
            workload::findWorkload(name).minHeapBytes * 2;
        for (auto kind : {sim::PlatformKind::HostDdr4,
                          sim::PlatformKind::CharonNmp}) {
            Cell c;
            c.key.workload = name;
            c.key.heapBytes = heap;
            c.platform = kind;
            c.label = std::string(name) + " on "
                      + sim::platformName(kind);
            cells.push_back(c);
        }
    }
    return cells;
}

/** The zoo grid: one cell pair per newly-offloadable collector. */
std::vector<Cell>
zooCells()
{
    const auto &cc = workload::findWorkload("CC");
    struct Row
    {
        gc::CollectorModel kind;
        std::uint64_t heap;
    };
    // G1 wants the catalog region heap; RC keeps everything in the
    // old space and needs double; CMS matches the fig12 sizing.
    const Row rows[] = {
        {gc::CollectorModel::G1, cc.heapBytes},
        {gc::CollectorModel::Cms, cc.minHeapBytes * 2},
        {gc::CollectorModel::Rc, cc.heapBytes * 2},
    };
    std::vector<Cell> cells;
    for (const auto &row : rows) {
        for (auto kind : {sim::PlatformKind::HostDdr4,
                          sim::PlatformKind::CharonNmp}) {
            Cell c;
            c.key.workload = "CC";
            c.key.collector = row.kind;
            c.key.heapBytes = row.heap;
            c.platform = kind;
            c.label = std::string("CC (")
                      + gc::collectorToken(row.kind) + ") on "
                      + sim::platformName(kind);
            cells.push_back(c);
        }
    }
    return cells;
}

/**
 * Run @p cells and collect the golden metrics.  Speedup rows pair
 * consecutive cells (DDR4 then Charon) and are named by @p speedupName
 * applied to the pair's first cell.
 */
Golden
measureCells(const std::vector<Cell> &cells,
             std::string (*speedupName)(const Cell &))
{
    // No trace cache: the goldens must not depend on cache state.
    ExperimentRunner runner(RunnerConfig{0, std::string()});
    auto results = runner.run(cells);
    Golden g;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_TRUE(results[i].ok) << cells[i].label << ": "
                                   << results[i].error;
        CellMetrics m;
        m.label = cells[i].label;
        const auto &t = results[i].timing;
        m.gcSeconds = t.gcSeconds;
        m.minorSeconds = t.minorSeconds;
        m.majorSeconds = t.majorSeconds;
        m.copy = t.threadSeconds(gc::PrimKind::Copy);
        m.search = t.threadSeconds(gc::PrimKind::Search);
        m.scanPush = t.threadSeconds(gc::PrimKind::ScanPush);
        m.bitmapCount = t.threadSeconds(gc::PrimKind::BitmapCount);
        m.bitSweep = t.threadSeconds(gc::PrimKind::BitSweep);
        m.refCount = t.threadSeconds(gc::PrimKind::RefCount);
        m.glue = t.threadSeconds(std::nullopt);
        g.cells.push_back(m);
    }
    // Per pair: DDR4 cell then Charon cell.
    for (std::size_t w = 0; w * 2 + 1 < g.cells.size(); ++w) {
        double base = g.cells[w * 2].gcSeconds;
        double charon = g.cells[w * 2 + 1].gcSeconds;
        g.speedups.emplace_back(speedupName(cells[w * 2]),
                                charon > 0 ? base / charon : 0);
    }
    return g;
}

Golden
measure()
{
    return measureCells(goldenCells(), [](const Cell &c) {
        return c.key.workload;
    });
}

Golden
measureZoo()
{
    return measureCells(zooCells(), [](const Cell &c) {
        return std::string(gc::collectorToken(c.key.collector));
    });
}

std::string
fmt(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
writeGolden(const std::string &path, const Golden &g,
            bool with_new_prims = false)
{
    std::ofstream os(path);
    ASSERT_TRUE(os) << "cannot write " << path;
    os << "{\n  \"comment\": \"regenerate with CHARON_UPDATE_GOLDEN=1 "
          "test_golden_figures; see EXPERIMENTS.md\",\n  \"cells\": [\n";
    for (std::size_t i = 0; i < g.cells.size(); ++i) {
        const auto &m = g.cells[i];
        os << "    {\"label\": \"" << m.label << "\", "
           << "\"gcSeconds\": " << fmt(m.gcSeconds) << ", "
           << "\"minorSeconds\": " << fmt(m.minorSeconds) << ", "
           << "\"majorSeconds\": " << fmt(m.majorSeconds) << ",\n"
           << "     \"copy\": " << fmt(m.copy) << ", "
           << "\"search\": " << fmt(m.search) << ", "
           << "\"scanPush\": " << fmt(m.scanPush) << ", "
           << "\"bitmapCount\": " << fmt(m.bitmapCount) << ", ";
        if (with_new_prims) {
            os << "\"bitSweep\": " << fmt(m.bitSweep) << ", "
               << "\"refCount\": " << fmt(m.refCount) << ", ";
        }
        os << "\"glue\": " << fmt(m.glue) << "}"
           << (i + 1 < g.cells.size() ? "," : "") << "\n";
    }
    os << "  ],\n  \"speedups\": [\n";
    for (std::size_t i = 0; i < g.speedups.size(); ++i) {
        os << "    {\"workload\": \"" << g.speedups[i].first
           << "\", \"charonOverDdr4\": " << fmt(g.speedups[i].second)
           << "}" << (i + 1 < g.speedups.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

bool
loadGolden(const std::string &path, Golden &g, std::string *error)
{
    std::ifstream is(path);
    if (!is) {
        *error = "cannot open " + path;
        return false;
    }
    std::stringstream ss;
    ss << is.rdbuf();
    testjson::ValuePtr root;
    try {
        root = testjson::parse(ss.str());
    } catch (const std::exception &e) {
        *error = e.what();
        return false;
    }
    auto cells = root->get("cells");
    if (!cells || !cells->isArray()) {
        *error = "golden file has no cells array";
        return false;
    }
    for (const auto &c : cells->array) {
        CellMetrics m;
        m.label = c->str("label");
        m.gcSeconds = c->num("gcSeconds");
        m.minorSeconds = c->num("minorSeconds");
        m.majorSeconds = c->num("majorSeconds");
        m.copy = c->num("copy");
        m.search = c->num("search");
        m.scanPush = c->num("scanPush");
        m.bitmapCount = c->num("bitmapCount");
        m.bitSweep = c->num("bitSweep");   // zoo golden only
        m.refCount = c->num("refCount");   // zoo golden only
        m.glue = c->num("glue");
        g.cells.push_back(m);
    }
    auto speedups = root->get("speedups");
    if (speedups && speedups->isArray()) {
        for (const auto &s : speedups->array)
            g.speedups.emplace_back(s->str("workload"),
                                    s->num("charonOverDdr4"));
    }
    return true;
}

::testing::AssertionResult
relNear(const char *what, double actual, double golden)
{
    double scale = std::max({1.0, std::abs(actual), std::abs(golden)});
    if (std::abs(actual - golden) <= kRelTol * scale)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << what << ": actual " << fmt(actual) << " vs golden "
           << fmt(golden)
           << " (outside rel tol 1e-6).  If the timing model changed "
              "intentionally, regenerate with CHARON_UPDATE_GOLDEN=1 "
              "(see EXPERIMENTS.md).";
}

void
compareToGolden(const Golden &actual, const std::string &path)
{
    Golden golden;
    std::string error;
    ASSERT_TRUE(loadGolden(path, golden, &error)) << error;
    ASSERT_EQ(actual.cells.size(), golden.cells.size())
        << "cell grid changed; regenerate the golden file";

    for (std::size_t i = 0; i < actual.cells.size(); ++i) {
        const auto &a = actual.cells[i];
        const auto &g = golden.cells[i];
        SCOPED_TRACE(a.label);
        EXPECT_EQ(a.label, g.label);
        EXPECT_TRUE(relNear("gcSeconds", a.gcSeconds, g.gcSeconds));
        EXPECT_TRUE(
            relNear("minorSeconds", a.minorSeconds, g.minorSeconds));
        EXPECT_TRUE(
            relNear("majorSeconds", a.majorSeconds, g.majorSeconds));
        EXPECT_TRUE(relNear("copy", a.copy, g.copy));
        EXPECT_TRUE(relNear("search", a.search, g.search));
        EXPECT_TRUE(relNear("scanPush", a.scanPush, g.scanPush));
        EXPECT_TRUE(
            relNear("bitmapCount", a.bitmapCount, g.bitmapCount));
        EXPECT_TRUE(relNear("bitSweep", a.bitSweep, g.bitSweep));
        EXPECT_TRUE(relNear("refCount", a.refCount, g.refCount));
        EXPECT_TRUE(relNear("glue", a.glue, g.glue));
    }

    ASSERT_EQ(actual.speedups.size(), golden.speedups.size());
    for (std::size_t i = 0; i < actual.speedups.size(); ++i) {
        SCOPED_TRACE("speedup " + actual.speedups[i].first);
        EXPECT_EQ(actual.speedups[i].first, golden.speedups[i].first);
        EXPECT_TRUE(relNear("charonOverDdr4",
                            actual.speedups[i].second,
                            golden.speedups[i].second));
    }
}

} // namespace

TEST(GoldenFigures, Fig12CellsMatchGolden)
{
    Golden actual = measure();
    if (::testing::Test::HasFailure())
        return; // a cell failed; the message above says which

    if (std::getenv("CHARON_UPDATE_GOLDEN") != nullptr) {
        writeGolden(goldenPath(), actual);
        std::printf("golden file updated: %s\n", goldenPath().c_str());
        return;
    }
    compareToGolden(actual, goldenPath());
}

TEST(GoldenFigures, ZooCellsMatchGolden)
{
    // One cell pair per newly-offloadable collector (G1 evacuation,
    // CMS bit-sweep, RC reclamation), same tolerance and update
    // procedure as the fig12 grid.
    Golden actual = measureZoo();
    if (::testing::Test::HasFailure())
        return;

    if (std::getenv("CHARON_UPDATE_GOLDEN") != nullptr) {
        writeGolden(zooGoldenPath(), actual, true);
        std::printf("golden file updated: %s\n",
                    zooGoldenPath().c_str());
        return;
    }
    compareToGolden(actual, zooGoldenPath());
}

TEST(GoldenFigures, SpeedupShapeIsSane)
{
    // Independent of exact goldens: Charon must beat the DDR4
    // baseline on these memory-bound workloads (the paper's core
    // claim), by a sane factor.
    Golden actual = measure();
    for (const auto &[workload, speedup] : actual.speedups) {
        SCOPED_TRACE(workload);
        EXPECT_GT(speedup, 1.0);
        EXPECT_LT(speedup, 50.0);
    }
}
