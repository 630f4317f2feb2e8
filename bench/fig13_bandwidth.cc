/**
 * @file
 * Figure 13: memory bandwidth utilized during GC on each platform,
 * and the fraction of Charon's accesses serviced by the local cube.
 *
 * Paper shape: the host platforms are capped by off-chip bandwidth
 * (34 GB/s DDR4 / 80 GB/s HMC links); Charon exploits the internal
 * TSV bandwidth well beyond that; over 70% of its requests are
 * local for most workloads, with LR and CC closer to half.
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

    // Cells and tables are charon-explore --preset fig13's.
    auto [cells, keys] = dse::fig13Cells();
    auto results = runner.run(cells);
    std::vector<dse::JournalRecord> records;
    for (std::size_t i = 0; i < cells.size(); ++i)
        records.push_back(dse::toRecord(keys[i], results[i]));
    dse::renderFig13(report, cells, records);
    report.addRollups(cells, results);
    harness::finishTimeline(runner, opt);
    return report.finish(std::cout);
}
