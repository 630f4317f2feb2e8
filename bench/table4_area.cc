/**
 * @file
 * Table 4: area of every Charon hardware component and the aggregates
 * the paper derives (total, per-cube average, fraction of the HMC
 * logic die).
 *
 * No workload cells here — the area model is analytic — but the table
 * still renders through the harness Report so --csv / --json work
 * uniformly across all benches.
 */

#include <sstream>

#include "bench_common.hh"

#include "accel/area_energy.hh"

using namespace charon;
using namespace charon::bench;

int
main(int argc, char **argv)
{
    auto opt = harness::standardOptions(argc, argv);
    Report report(opt);

    accel::AreaModel area{sim::SystemConfig::table2()};
    auto &table = report.table("table4", "Table 4: Charon area usage",
                               {"component", "per-unit mm^2", "units",
                                "total mm^2", "class"});
    for (const auto &c : area.components()) {
        table.addRow({c.name, report::num(c.perUnitMm2, 4),
                      std::to_string(c.units),
                      report::num(c.totalMm2(), 4),
                      c.isProcessingUnit ? "processing unit"
                                         : "general"});
    }
    std::ostringstream note;
    note << "\ntotal area: " << report::num(area.totalMm2(), 4)
         << " mm^2 (paper: 1.9470)\n"
         << "average per cube: " << report::num(area.perCubeMm2(), 4)
         << " mm^2 (paper: 0.4868)\n"
         << "fraction of the "
         << report::num(accel::AreaModel::kLogicDieMm2, 0)
         << " mm^2 logic die: "
         << report::num(100 * area.logicLayerFraction(), 2)
         << "% (paper: ~0.49%)";
    table.note(note.str());
    return report.finish(std::cout);
}
