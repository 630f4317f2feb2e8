/**
 * @file
 * Integrated-GPU offload backend: the "Trash Talk" comparison point.
 *
 * The GPU slice shares the host LLC and the DDR4 memory controller,
 * so an offloaded primitive sees exactly the memory system the host
 * GC thread would have used — same latency, same channels, contending
 * with every concurrent host-path stream through the shared
 * Ddr4Memory FluidChannels.  What changes is the overheads: every
 * bucket pays a kernel-launch latency (driver + doorbell + EU thread
 * spawn, hundreds of ns) and every invocation pays an EU work-item
 * dispatch cost, while the per-kernel memory-level parallelism is the
 * GPU L2's miss-queue share, not better than a host core's MSHRs.
 * Near-memory placement is what Charon wins on; this backend isolates
 * the "offload alone" contribution, which the paper (and Trash Talk)
 * argue is nil.
 */

#ifndef CHARON_ACCEL_IGPU_HH
#define CHARON_ACCEL_IGPU_HH

#include <memory>

#include "accel/backend.hh"
#include "mem/ddr4.hh"
#include "mem/fluid_channel.hh"
#include "sim/join.hh"

namespace charon::accel
{

/** GC primitives as GPGPU kernels on the host die. */
class IgpuDevice : public OffloadBackend
{
  public:
    /** @param instr the EU pool becomes a counter track ("igpu.eu"). */
    IgpuDevice(sim::EventQueue &eq, mem::Ddr4Memory &ddr4,
               const sim::SystemConfig &cfg,
               const sim::Instrumentation &instr = {});

    sim::BackendKind kind() const override
    {
        return sim::BackendKind::Igpu;
    }

    /** GPGPU kernels express all six primitives (they just don't win). */
    std::uint32_t capabilityMask() const override
    {
        return gc::kAllPrimsMask;
    }

    void execBucket(const gc::Bucket &bucket, double bitmap_hit_rate,
                    sim::Join *done) override;

    /** One-time kernel-image warmup at GC start: one launch. */
    sim::Tick gcPrologueTicks() const override;

    /** Per-invocation EU work-item dispatch cost (cube ignored). */
    sim::Tick offloadOverhead(int cube) const override;

    double unitBusySeconds() const override;
    double packetBytes() const override { return packetBytes_; }
    double unitEnergyJ(double gc_seconds) const override;
    double areaMm2() const override { return cfg_.igpu.areaMm2; }

    void setFaultEngine(const fault::FaultEngine *engine) override
    {
        fault_ = engine;
    }

  private:
    /** Per-kernel MLP-limited stream rate against host DRAM latency. */
    double seqRate() const;
    double randomRate() const;

    sim::EventQueue &eq_;
    mem::Ddr4Memory &ddr4_;
    sim::SystemConfig cfg_;
    sim::JoinPool joins_{eq_};

    /** EU issue bandwidth shared by all in-flight kernels. */
    std::unique_ptr<mem::FluidChannel> euPool_;

    double packetBytes_ = 0;
    const fault::FaultEngine *fault_ = nullptr;
};

} // namespace charon::accel

#endif // CHARON_ACCEL_IGPU_HH
