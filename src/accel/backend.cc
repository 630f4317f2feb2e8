#include "backend.hh"

#include <algorithm>

#include "accel/cxl.hh"
#include "accel/device.hh"
#include "accel/igpu.hh"
#include "sim/logging.hh"

namespace charon::accel
{

double
issueRate(double freq_hz, int bytes_per_cycle)
{
    return sim::gbPerSecToBytesPerTick(freq_hz * bytes_per_cycle / 1e9);
}

double
unitPoolEnergyJ(double busy_seconds, int units, double gc_seconds,
                double active_w, double idle_w)
{
    return busy_seconds * active_w
           + std::max(0.0, units * gc_seconds - busy_seconds) * idle_w;
}

std::unique_ptr<OffloadBackend>
makeBackend(sim::PlatformKind kind, sim::EventQueue &eq,
            hmc::HmcMemory *hmc, mem::Ddr4Memory *ddr4,
            const sim::SystemConfig &cfg,
            const sim::Instrumentation &instr)
{
    switch (sim::backendFor(kind)) {
      case sim::BackendKind::None:
        return nullptr;
      case sim::BackendKind::Charon: {
        CHARON_ASSERT(hmc != nullptr,
                      "Charon backend requires HMC memory");
        // Figure 16 CPU-side unit placement is a platform property.
        return std::make_unique<CharonDevice>(
            eq, *hmc, cfg, kind == sim::PlatformKind::CharonCpuSide,
            instr);
      }
      case sim::BackendKind::Igpu:
        CHARON_ASSERT(ddr4 != nullptr,
                      "iGPU backend requires DDR4 memory");
        return std::make_unique<IgpuDevice>(eq, *ddr4, cfg, instr);
      case sim::BackendKind::Cxl:
        CHARON_ASSERT(ddr4 != nullptr,
                      "CXL backend requires expander DRAM");
        return std::make_unique<CxlDevice>(eq, *ddr4, cfg, instr);
    }
    return nullptr;
}

int
concurrentOffloadSlots(sim::PlatformKind kind,
                       const sim::SystemConfig &cfg)
{
    switch (sim::backendFor(kind)) {
      case sim::BackendKind::None:
        return 0;
      case sim::BackendKind::Charon:
        return cfg.hmc.cubes;
      case sim::BackendKind::Igpu:
      case sim::BackendKind::Cxl:
        return 1;
    }
    return 0;
}

double
backendAreaMm2(sim::PlatformKind kind, const sim::SystemConfig &cfg)
{
    switch (sim::backendFor(kind)) {
      case sim::BackendKind::None:
        return 0.0;
      case sim::BackendKind::Charon:
        return charonAreaMm2(cfg);
      case sim::BackendKind::Igpu:
        return cfg.igpu.areaMm2;
      case sim::BackendKind::Cxl:
        return cfg.cxl.areaMm2;
    }
    return 0.0;
}

} // namespace charon::accel
