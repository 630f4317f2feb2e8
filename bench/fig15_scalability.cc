/**
 * @file
 * Figure 15: GC throughput scalability with the number of GC threads
 * (and, for Charon, a matching number of primitive units), comparing
 * the DDR4 host against Charon with unified vs. distributed bitmap
 * cache / TLB structures.
 *
 * Paper shape: DDR4 hardly scales past a few threads (34 GB/s wall);
 * Charon keeps scaling on internal bandwidth; the distributed design
 * generally scales better than the unified one because contention at
 * the central cube's structures is removed.
 */

#include "bench_common.hh"

#include "dse/presets.hh"

using namespace charon;
using namespace charon::bench;

int
main(int argc, char **argv)
{
    auto opt = harness::standardOptions(argc, argv);
    ExperimentRunner runner(opt.runnerConfig());
    Report report(opt);

    // Cells and tables are charon-explore --preset fig15's.
    auto [cells, keys] = dse::fig15Cells();
    auto results = runner.run(cells);
    std::vector<dse::JournalRecord> records;
    for (std::size_t i = 0; i < cells.size(); ++i)
        records.push_back(dse::toRecord(keys[i], results[i]));
    dse::renderFig15(report, cells, records);
    report.addRollups(cells, results);
    harness::finishTimeline(runner, opt);
    return report.finish(std::cout);
}
