/**
 * @file
 * Figure 4: runtime breakdown of MinorGC (a) and MajorGC (b) by
 * operation on the host + DDR4 baseline.
 *
 * Paper shape: Search + Scan&Push + Copy cover 71.4% (Spark) / 78.2%
 * (GraphChi) of MinorGC; Scan&Push + Bitmap Count + Copy cover 74.1% /
 * 79.1% of MajorGC.  Spark leans on Copy (+Search); GraphChi leans on
 * Scan&Push and Bitmap Count; ALS is Copy-heavy despite being a
 * GraphChi workload (one huge matrix object).
 *
 * One DDR4 replay per workload feeds both tables.
 */

#include <sstream>

#include "bench_common.hh"

using namespace charon;
using namespace charon::bench;

namespace
{

using gc::PrimKind;

void
breakdownTable(Report &report, const char *id, const char *title,
               bool major, const std::vector<std::string> &workloads,
               const std::vector<Cell> &cells,
               const std::vector<CellResult> &results)
{
    auto &table = report.table(
        id, title,
        {"workload", "Copy", "Search", "Scan&Push", "BitmapCount",
         "Other", "primitives total"});
    double spark_sum = 0, graphchi_sum = 0;
    int spark_n = 0, graphchi_n = 0;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        if (!results[w].ok)
            continue;
        const auto &t = results[w].timing;
        auto secs = [&](PrimKind kind) {
            return t.threadSeconds(major, kind);
        };
        const double glue = t.threadSeconds(major, std::nullopt);
        double total = 0;
        for (int k = 0; k < gc::kNumPrimKinds; ++k)
            total += secs(static_cast<PrimKind>(k));
        total += glue;
        const double prim = total - glue;
        table.addRow({workloads[w],
                      report::percent(secs(PrimKind::Copy), total),
                      report::percent(secs(PrimKind::Search), total),
                      report::percent(secs(PrimKind::ScanPush), total),
                      report::percent(secs(PrimKind::BitmapCount), total),
                      report::percent(glue, total),
                      report::percent(prim, total)});
        const auto &params = workload::findWorkload(workloads[w]);
        if (params.framework == "Spark") {
            spark_sum += prim / total;
            ++spark_n;
        } else {
            graphchi_sum += prim / total;
            ++graphchi_n;
        }
    }
    (void)cells;
    std::ostringstream note;
    note << "\nframework averages of the primitive share: Spark "
         << report::num(spark_n ? 100 * spark_sum / spark_n : 0, 1)
         << "% (paper: " << (major ? "74.1" : "71.4")
         << "%), GraphChi "
         << report::num(
                graphchi_n ? 100 * graphchi_sum / graphchi_n : 0, 1)
         << "% (paper: " << (major ? "79.1" : "78.2") << "%)";
    table.note(note.str());
}

} // namespace

int
main(int argc, char **argv)
{
    auto opt = harness::standardOptions(argc, argv);
    ExperimentRunner runner(opt.runnerConfig());
    Report report(opt);

    const auto workloads = allWorkloads();
    std::vector<Cell> cells;
    for (const auto &name : workloads)
        cells.push_back(cell(name, sim::PlatformKind::HostDdr4));
    auto results = runner.run(cells);
    for (std::size_t i = 0; i < cells.size(); ++i)
        report.checkCell(cells[i], results[i]);

    breakdownTable(report, "fig04a",
                   "Figure 4(a): MinorGC runtime breakdown "
                   "(host + DDR4)",
                   /*major=*/false, workloads, cells, results);
    breakdownTable(report, "fig04b",
                   "Figure 4(b): MajorGC runtime breakdown "
                   "(host + DDR4)",
                   /*major=*/true, workloads, cells, results);
    report.addRollups(cells, results);
    harness::finishTimeline(runner, opt);
    return report.finish(std::cout);
}
