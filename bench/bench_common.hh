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

using harness::allWorkloads;
using harness::cell;
using harness::Cell;
using harness::CellResult;
using gc::CollectorModel;
using harness::ExperimentRunner;
using harness::FunctionalKey;
using harness::Report;
using harness::ResultSink;

} // namespace charon::bench

#endif // CHARON_BENCH_COMMON_HH
