/**
 * @file
 * Figure 14: per-primitive speedup of Charon over the host + DDR4
 * baseline (S: Search, SP: Scan&Push, C: Copy, BC: Bitmap Count).
 *
 * Paper shape: Copy up to 26.15x (10.17x avg), Search up to 4.09x
 * (2.90x avg), Scan&Push up to 1.86x (1.20x avg) and *degrading*
 * below 1x on the reference-sparse ML workloads (BS, KM, LR, ALS),
 * Bitmap Count up to 6.11x (5.63x avg).
 */

#include <algorithm>

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
    std::vector<Cell> cells;
    for (const auto &name : workloads) {
        cells.push_back(cell(name, sim::PlatformKind::HostDdr4));
        cells.push_back(cell(name, sim::PlatformKind::CharonNmp));
    }
    auto results = runner.run(cells);

    auto &table = report.table(
        "fig14",
        "Figure 14: per-primitive Charon speedup over host + DDR4",
        {"workload", "S", "SP", "C", "BC"});
    std::vector<double> s, sp, c, bc;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        std::size_t i = w * 2;
        bool ok = report.checkCell(cells[i], results[i])
                  & report.checkCell(cells[i + 1], results[i + 1]);
        if (!ok)
            continue;
        auto ratio = [&](gc::PrimKind kind) {
            double ddr4 = results[i].timing.threadSeconds(kind);
            double charon = results[i + 1].timing.threadSeconds(kind);
            return charon > 0 ? ddr4 / charon : 0.0;
        };
        s.push_back(ratio(gc::PrimKind::Search));
        sp.push_back(ratio(gc::PrimKind::ScanPush));
        c.push_back(ratio(gc::PrimKind::Copy));
        bc.push_back(ratio(gc::PrimKind::BitmapCount));
        table.addRow({workloads[w], report::times(s.back()),
                      report::times(sp.back()),
                      report::times(c.back()),
                      report::times(bc.back())});
    }
    auto summary = [](std::vector<double> v) {
        std::vector<double> positive;
        for (double x : v) {
            if (x > 0)
                positive.push_back(x);
        }
        double max =
            positive.empty()
                ? 0.0
                : *std::max_element(positive.begin(), positive.end());
        return std::pair{sim::geomean(positive), max};
    };
    auto [s_avg, s_max] = summary(s);
    auto [sp_avg, sp_max] = summary(sp);
    auto [c_avg, c_max] = summary(c);
    auto [bc_avg, bc_max] = summary(bc);
    table.addRow({"geomean", report::times(s_avg),
                  report::times(sp_avg), report::times(c_avg),
                  report::times(bc_avg)});
    table.addRow({"max", report::times(s_max), report::times(sp_max),
                  report::times(c_max), report::times(bc_max)});
    table.note("\npaper: S avg 2.90x / max 4.09x; SP avg 1.20x / max "
               "1.86x (degrades on BS, KM, LR, ALS); C avg 10.17x / "
               "max 26.15x; BC avg 5.63x / max 6.11x");
    report.addRollups(cells, results);
    harness::finishTimeline(runner, opt);
    return report.finish(std::cout);
}
