/**
 * @file
 * CXL memory-side accelerator backend (PIM-adoption survey's
 * mechanisms as costs).
 *
 * The heap lives on a CXL.mem expander.  Processing units sit next to
 * the expander DRAM, so their streams see raw DRAM latency and
 * bandwidth — the near-memory half of Charon's advantage — but the
 * device is across a serial link from the host, which costs:
 *
 *  - every offload command/response crosses the link (serialization
 *    plus a round trip per invocation);
 *  - the *host's* own GC accesses (glue work, host-only buckets) also
 *    cross the link, via the CxlHostPort this backend substitutes as
 *    the platform's host attachment;
 *  - device-side translation is host-managed: a configured fraction
 *    of device accesses misses the device TLB and pays a host
 *    round-trip walk (the fault engine's TLB poisoning adds to it);
 *  - writes to host-cacheable GC metadata (mark bitmaps, count
 *    words, free lists) trigger back-invalidation snoops that ride
 *    the shared link and contend with host demand traffic.
 */

#ifndef CHARON_ACCEL_CXL_HH
#define CHARON_ACCEL_CXL_HH

#include <memory>

#include "accel/backend.hh"
#include "mem/cxl_port.hh"
#include "mem/ddr4.hh"
#include "mem/fluid_channel.hh"
#include "sim/join.hh"

namespace charon::accel
{

/** GC primitives on a CXL.mem expander's memory-side units. */
class CxlDevice : public OffloadBackend
{
  public:
    /**
     * @param instr the unit pool ("cxl.units") and the shared link
     *        ("cxl.link") become counter tracks.
     */
    CxlDevice(sim::EventQueue &eq, mem::Ddr4Memory &ddr4,
              const sim::SystemConfig &cfg,
              const sim::Instrumentation &instr = {});

    sim::BackendKind kind() const override
    {
        return sim::BackendKind::Cxl;
    }

    /** Memory-side units implement all six primitives. */
    std::uint32_t capabilityMask() const override
    {
        return gc::kAllPrimsMask;
    }

    void execBucket(const gc::Bucket &bucket, double bitmap_hit_rate,
                    sim::Join *done) override;

    /**
     * Host dirty-line writeback over the CXL link at GC start, so the
     * device reads current data (same heap-scale compensation as the
     * Charon flush).
     */
    sim::Tick gcPrologueTicks() const override;

    /** Command serialization + link round trip per invocation. */
    sim::Tick offloadOverhead(int cube) const override;

    double unitBusySeconds() const override;
    double packetBytes() const override { return packetBytes_; }
    double unitEnergyJ(double gc_seconds) const override;
    double areaMm2() const override { return cfg_.cxl.areaMm2; }

    /** The host streams through the expander link, not raw DDR4. */
    mem::MemPort *hostPort() override { return &hostPort_; }

    void setFaultEngine(const fault::FaultEngine *engine) override
    {
        fault_ = engine;
    }

  private:
    /** Device-MLP-limited stream rate against raw expander DRAM. */
    double devRate(mem::AccessPattern pattern) const;

    sim::EventQueue &eq_;
    mem::Ddr4Memory &ddr4_;
    sim::SystemConfig cfg_;
    sim::JoinPool joins_{eq_};

    /** Host attachment (owns the shared link channel). */
    mem::CxlHostPort hostPort_;

    /** Issue bandwidth of the memory-side units. */
    std::unique_ptr<mem::FluidChannel> unitPool_;

    double packetBytes_ = 0;
    const fault::FaultEngine *fault_ = nullptr;
};

} // namespace charon::accel

#endif // CHARON_ACCEL_CXL_HH
