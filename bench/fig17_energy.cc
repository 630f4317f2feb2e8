/**
 * @file
 * Figure 17 + Section 5.3: GC energy consumption of Charon relative
 * to the host-only platforms, with the component split and average
 * accelerator power.
 *
 * Paper shape: Charon saves 60.7% of GC energy versus the DDR4 host
 * and 51.6% versus the HMC host; the accelerator's own structures
 * contribute a negligible share; average Charon power is ~3 W
 * (max 4.51 W on ALS), far under passive-cooling limits.
 */

#include <sstream>

#include "bench_common.hh"

#include "accel/area_energy.hh"
#include "sim/stats.hh"

using namespace charon;
using namespace charon::bench;

int
main(int argc, char **argv)
{
    auto opt = harness::standardOptions(argc, argv);
    ExperimentRunner runner(opt.runnerConfig());
    Report report(opt);

    const sim::PlatformKind kinds[] = {sim::PlatformKind::HostDdr4,
                                       sim::PlatformKind::HostHmc,
                                       sim::PlatformKind::CharonNmp};
    const auto workloads = allWorkloads();
    std::vector<Cell> cells;
    for (const auto &name : workloads)
        for (auto kind : kinds)
            cells.push_back(cell(name, kind));
    auto results = runner.run(cells);

    auto &table = report.table(
        "fig17",
        "Figure 17: GC energy, normalized to the host + DDR4 baseline",
        {"workload", "vs DDR4", "vs HMC", "host J", "DRAM J",
         "units J", "unit share", "avg unit W"});
    std::vector<double> vs_ddr4, vs_hmc;
    double max_power = 0;
    std::string max_power_wl;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        std::size_t i = w * 3;
        bool ok = true;
        for (std::size_t k = 0; k < 3; ++k)
            ok &= report.checkCell(cells[i + k], results[i + k]);
        if (!ok)
            continue;
        const auto &ddr4 = results[i].timing;
        const auto &hmc = results[i + 1].timing;
        const auto &charon = results[i + 2].timing;

        vs_ddr4.push_back(charon.totalEnergyJ() / ddr4.totalEnergyJ());
        vs_hmc.push_back(charon.totalEnergyJ() / hmc.totalEnergyJ());
        double unit_power =
            charon.gcSeconds > 0
                ? charon.unitEnergyJ / charon.gcSeconds
                : 0;
        if (unit_power > max_power) {
            max_power = unit_power;
            max_power_wl = workloads[w];
        }
        table.addRow(
            {workloads[w],
             report::num(100 * vs_ddr4.back(), 1) + "%",
             report::num(100 * vs_hmc.back(), 1) + "%",
             report::num(charon.hostEnergyJ, 2),
             report::num(charon.dramEnergyJ, 2),
             report::num(charon.unitEnergyJ, 3),
             report::percent(charon.unitEnergyJ,
                             charon.totalEnergyJ()),
             report::num(unit_power, 2)});
    }
    table.addRow({"geomean",
                  report::num(100 * sim::geomean(vs_ddr4), 1) + "%",
                  report::num(100 * sim::geomean(vs_hmc), 1) + "%", "-",
                  "-", "-", "-", "-"});

    std::ostringstream note;
    note << "\nsavings: "
         << report::num(100 * (1 - sim::geomean(vs_ddr4)), 1)
         << "% vs DDR4 (paper: 60.7%), "
         << report::num(100 * (1 - sim::geomean(vs_hmc)), 1)
         << "% vs HMC (paper: 51.6%)\n"
         << "max accelerator power: " << report::num(max_power, 2)
         << " W on " << max_power_wl
         << " (paper: 4.51 W on ALS); power density "
         << report::num(
                accel::PowerModel::powerDensityMwPerMm2(
                    max_power, sim::SystemConfig::table2().hmc.cubes),
                1)
         << " mW/mm^2, passive-heatsink limit "
         << report::num(accel::PowerModel::kPassiveHeatsinkMwPerMm2, 0)
         << " mW/mm^2";
    table.note(note.str());
    report.addRollups(cells, results);
    harness::finishTimeline(runner, opt);
    return report.finish(std::cout);
}
