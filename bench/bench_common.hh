/**
 * @file
 * Shared plumbing for the per-figure bench binaries, now a thin layer
 * over the harness: benches declare a list of experiment cells, the
 * ExperimentRunner executes every distinct functional run once (trace
 * cache first) and replays the cells on a thread pool, and a Report
 * renders the tables (aligned text, CSV, or JSON).
 *
 * Every bench accepts the shared flags: --jobs=N, --cache-dir=DIR,
 * --no-cache, --csv, --json=FILE.
 */

#ifndef CHARON_BENCH_COMMON_HH
#define CHARON_BENCH_COMMON_HH

#include <iostream>
#include <string>
#include <vector>

#include "harness/experiment_runner.hh"
#include "harness/options.hh"
#include "harness/result_sink.hh"
#include "report/table.hh"
#include "workload/catalog.hh"

namespace charon::bench
{

using harness::Cell;
using harness::CellResult;
using gc::CollectorModel;
using harness::ExperimentRunner;
using harness::FunctionalKey;
using harness::Report;
using harness::ResultSink;

/** Build a replay cell for @p workload on @p platform. */
inline Cell
cell(std::string workload, sim::PlatformKind platform,
     std::uint64_t heap_bytes = 0, std::uint64_t seed = 1,
     int gc_threads = 8, int num_cubes = 4)
{
    Cell c;
    c.key.workload = std::move(workload);
    c.key.heapBytes = heap_bytes;
    c.key.seed = seed;
    c.key.gcThreads = gc_threads;
    c.key.numCubes = num_cubes;
    c.platform = platform;
    c.config = sim::SystemConfig::table2();
    c.label = c.key.workload + " on " + sim::platformName(platform);
    return c;
}

/** All six workload names in catalog (Table 3) order. */
inline std::vector<std::string>
allWorkloads()
{
    std::vector<std::string> names;
    for (const auto &w : workload::workloadCatalog())
        names.push_back(w.name);
    return names;
}

} // namespace charon::bench

#endif // CHARON_BENCH_COMMON_HH
