#include "area_energy.hh"

namespace charon::accel
{

AreaModel::AreaModel(const sim::SystemConfig &cfg) : cubes_(cfg.hmc.cubes)
{
    // Table 4 of the paper.  Per-unit areas are synthesis results
    // (TSMC 40 nm) for the processing units and CACTI 45 nm estimates
    // for the storage structures; unit counts follow the configuration
    // (Table 2: 4 cubes, queues/metadata/TLB per cube, one shared
    // bitmap cache at the central cube).
    const sim::CharonConfig &ch = cfg.charon;
    components_ = {
        {"Command Queue", 0.0049, cubes_, false},
        {"Request Queue(R)", 0.0015, cubes_, false},
        {"Request Queue(W)", 0.0162, cubes_, false},
        {"Metadata Array", 0.0805, cubes_, false},
        {"Bitmap Cache", 0.1562, 1, false},
        {"TLB", 0.0706, cubes_, false},
        {"Copy/Search", 0.0223, ch.copySearchUnits, true},
        {"Bitmap Count", 0.0427, ch.bitmapCountUnits, true},
        {"Scan&Push", 0.0720, ch.scanPushUnits, true},
    };
}

double
AreaModel::totalMm2() const
{
    double total = 0;
    for (const auto &c : components_)
        total += c.totalMm2();
    return total;
}

double
AreaModel::perCubeMm2() const
{
    return totalMm2() / cubes_;
}

double
AreaModel::logicLayerFraction() const
{
    return perCubeMm2() / kLogicDieMm2;
}

} // namespace charon::accel
