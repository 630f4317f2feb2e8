/**
 * @file
 * Extension experiment (paper §4.6 / Table 1, quantified end-to-end):
 * run every workload under both collector families — ParallelScavenge
 * (throughput) and our G1 (latency/region-based) — and measure how
 * much Charon accelerates each.
 *
 * Expectation from the paper's applicability argument: the speedup
 * carries over, because both collectors spend their time in the same
 * offloadable primitives (G1's evacuation is Copy + Scan&Push; its
 * region-liveness accounting is Bitmap Count).
 *
 * Note: ALS runs G1 with 2x the Table 3 heap — its per-iteration
 * humongous factor matrices fragment a region heap, a well-known G1
 * behaviour that simply needs headroom.
 */

#include "bench_common.hh"

#include "sim/stats.hh"

using namespace charon;
using namespace charon::bench;

int
main(int argc, char **argv)
{
    auto opt = harness::standardOptions(argc, argv);
    ExperimentRunner runner(opt.runnerConfig());
    Report report(opt);

    const auto workloads = allWorkloads();

    // Four cells per workload: {PS, G1} x {DDR4, Charon}.  The two
    // collectors are distinct functional keys, so the G1 traces land
    // in the cache next to the ParallelScavenge ones.
    std::vector<Cell> cells;
    for (const auto &name : workloads) {
        cells.push_back(cell(name, sim::PlatformKind::HostDdr4));
        cells.push_back(cell(name, sim::PlatformKind::CharonNmp));

        for (auto kind : {sim::PlatformKind::HostDdr4,
                          sim::PlatformKind::CharonNmp}) {
            Cell c = cell(name, kind,
                          harness::familyHeapBytes(name, CollectorModel::G1));
            c.key.collector = CollectorModel::G1;
            c.label = name + " (G1) on "
                      + sim::platformName(kind);
            cells.push_back(c);
        }
    }
    auto results = runner.run(cells);

    auto &table = report.table(
        "g1_vs_ps",
        "Extension: Charon speedup under ParallelScavenge vs G1 "
        "(each over its own host + DDR4 baseline)",
        {"workload", "PS GCs", "PS speedup", "G1 GCs", "G1 speedup"});
    std::vector<double> ps_s, g1_s;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        std::size_t i = w * 4;
        bool ps_ok = report.checkCell(cells[i], results[i])
                     & report.checkCell(cells[i + 1], results[i + 1]);
        // A G1 OOM is a reportable outcome (the headroom note), not a
        // bench failure: render the cell as "OOM" and move on.
        bool g1_ok =
            report.checkCell(cells[i + 2], results[i + 2])
            & report.checkCell(cells[i + 3], results[i + 3]);
        if (!ps_ok && !g1_ok)
            continue;

        std::string ps_gcs = "-", ps_cell = "-";
        if (ps_ok) {
            double speedup = results[i].timing.gcSeconds
                             / results[i + 1].timing.gcSeconds;
            ps_s.push_back(speedup);
            ps_cell = report::times(speedup);
            ps_gcs =
                std::to_string(results[i].run->gcsMinor) + "m+"
                + std::to_string(results[i].run->gcsMajor) + "M";
        }
        std::string g1_gcs = "-", g1_cell = "OOM";
        if (g1_ok) {
            double speedup = results[i + 2].timing.gcSeconds
                             / results[i + 3].timing.gcSeconds;
            g1_s.push_back(speedup);
            g1_cell = report::times(speedup);
            g1_gcs =
                std::to_string(results[i + 2].run->gcsMinor) + "y+"
                + std::to_string(results[i + 2].run->gcsMajor) + "m";
        }
        table.addRow({workloads[w], ps_gcs, ps_cell, g1_gcs, g1_cell});
    }
    table.addRow({"geomean", "", report::times(sim::geomean(ps_s)), "",
                  report::times(sim::geomean(g1_s))});
    table.note("\nTable 1's claim, quantified: the acceleration is a "
               "property of the primitives, not of one collector");
    report.addRollups(cells, results);
    harness::finishTimeline(runner, opt);
    return report.finish(std::cout);
}
