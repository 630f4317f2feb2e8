/**
 * @file
 * Area and power model of the Charon hardware (Table 4 and
 * Section 5.3 of the paper).
 *
 * The paper obtained per-component areas from Chisel3 + Synopsys DC
 * synthesis in TSMC 40 nm (processing units) and CACTI at 45 nm
 * (queues / caches / TLB).  Those numbers are reported constants; we
 * embed them with provenance and recompute every aggregate the paper
 * derives from them (total area, per-cube average, fraction of the
 * 100 mm^2 HMC logic die, power density against the passive-heatsink
 * limit).
 */

#ifndef CHARON_ACCEL_AREA_ENERGY_HH
#define CHARON_ACCEL_AREA_ENERGY_HH

#include <string>
#include <vector>

#include "sim/config.hh"

namespace charon::accel
{

/** One Table 4 row. */
struct AreaComponent
{
    std::string name;
    double perUnitMm2;
    int units;
    bool isProcessingUnit; ///< vs. "general component"

    double totalMm2() const { return perUnitMm2 * units; }
};

/**
 * The Charon area budget.
 */
class AreaModel
{
  public:
    /**
     * Unit rows from @p cfg.charon; the per-cube rows (queues,
     * metadata array, TLB) count one per cube of @p cfg.hmc.
     */
    explicit AreaModel(const sim::SystemConfig &cfg);

    const std::vector<AreaComponent> &components() const
    {
        return components_;
    }

    /** Sum of all components (paper: 1.9470 mm^2). */
    double totalMm2() const;

    /** Average area per cube (paper, 4 cubes: 0.4868 mm^2). */
    double perCubeMm2() const;

    /** Fraction of the HMC logic-layer area (paper: ~0.49%). */
    double logicLayerFraction() const;

    /** HMC logic die area assumed by the paper [22]. */
    static constexpr double kLogicDieMm2 = 100.0;

  private:
    int cubes_;
    std::vector<AreaComponent> components_;
};

/**
 * Power/energy bookkeeping constants (Section 5.3).
 */
struct PowerModel
{
    /** Peak Charon power the paper reports (ALS). */
    static constexpr double kPaperMaxPowerW = 4.51;

    /** Max allowable power density for a low-end passive heat sink. */
    static constexpr double kPassiveHeatsinkMwPerMm2 = 96.0;

    /** Power density of Charon at @p power_w over @p cubes' logic. */
    static double
    powerDensityMwPerMm2(double power_w, int cubes)
    {
        return power_w * 1000.0 / (cubes * AreaModel::kLogicDieMm2);
    }
};

} // namespace charon::accel

#endif // CHARON_ACCEL_AREA_ENERGY_HH
