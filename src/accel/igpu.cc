#include "igpu.hh"

#include <algorithm>

namespace charon::accel
{

using gc::PrimKind;
using sim::Tick;

IgpuDevice::IgpuDevice(sim::EventQueue &eq, mem::Ddr4Memory &ddr4,
                       const sim::SystemConfig &cfg,
                       const sim::Instrumentation &instr)
    : eq_(eq), ddr4_(ddr4), cfg_(cfg)
{
    const auto &g = cfg_.igpu;
    // One pool: EU clusters are symmetric, and a kernel occupies one
    // cluster's issue slot (64 B/cycle) while it runs.
    euPool_ = std::make_unique<mem::FluidChannel>(
        eq_, "igpu.eu",
        g.computeUnits * issueRate(g.euFreqHz, 64), instr);
}

double
IgpuDevice::seqRate() const
{
    // A kernel's share of the GPU L2 miss queue, against the *host*
    // DRAM latency: the slice hangs off the same controller, so no
    // latency advantage over a host core — and per kernel, no MLP
    // advantage either.
    int mlp = std::max(1, cfg_.igpu.concurrentRequests
                              / cfg_.igpu.computeUnits);
    Tick lat = ddr4_.latency(mem::AccessPattern::Sequential);
    return mlp * 64.0 / static_cast<double>(lat);
}

double
IgpuDevice::randomRate() const
{
    int mlp = std::max(1, cfg_.igpu.concurrentRequests
                              / cfg_.igpu.computeUnits);
    Tick lat = ddr4_.latency(mem::AccessPattern::Random);
    return mlp * 64.0 / static_cast<double>(lat);
}

Tick
IgpuDevice::gcPrologueTicks() const
{
    return sim::nsToTicks(cfg_.igpu.launchLatencyNs);
}

Tick
IgpuDevice::offloadOverhead(int /*cube*/) const
{
    double ns = cfg_.igpu.dispatchCyclesPerInvocation * 1e9
                / cfg_.igpu.euFreqHz;
    return sim::nsToTicks(ns);
}

void
IgpuDevice::execBucket(const gc::Bucket &b, double /*bitmap_hit_rate*/,
                       sim::Join *done)
{
    if (b.invocations == 0) {
        sim::arriveAt(eq_, done, eq_.now());
        return;
    }

    // One bucket == one kernel: the blocked host thread pays the
    // launch once, then every invocation is a work item with its
    // dispatch cost.  IOMMU translations poisoned by the fault engine
    // fall back to a host-mediated walk (one more DRAM round trip).
    Tick per_inv = offloadOverhead(0);
    if (fault_) {
        double poison = fault_->tlbPoisonRate(eq_.now());
        per_inv += static_cast<Tick>(
            poison * static_cast<double>(
                         ddr4_.latency(mem::AccessPattern::Random)));
    }
    const sim::Delay overhead(sim::nsToTicks(cfg_.igpu.launchLatencyNs)
                              + per_inv * b.invocations);
    // Command submission + completion fence through the ring buffer.
    packetBytes_ += static_cast<double>(b.invocations) * 64.0;

    // Every kind is a join of the kernel's EU occupancy and its DRAM
    // traffic through the shared host memory system.  The bit-scan
    // kinds charge the EU pool per *bit* walked, not per byte moved:
    // the run-length state makes those loops loop-carried, so they
    // run on one scalar EU lane per bucket (see bitLoopCyclesPerBit).
    sim::Join *join = joins_.acquire(2, done, overhead);
    auto bit_loop_bytes = [this](std::uint64_t range_bits) {
        // Scaled so draining at eu_rate (64 B/cycle) takes exactly
        // bitLoopCyclesPerBit EU cycles per bit.
        double bytes = static_cast<double>(range_bits)
                       * cfg_.igpu.bitLoopCyclesPerBit * 64.0;
        return static_cast<std::uint64_t>(bytes) + 1;
    };
    std::uint64_t eu_bytes = 0;
    double eu_rate = issueRate(cfg_.igpu.euFreqHz, 64);
    mem::StreamRequest req;
    req.pattern = mem::AccessPattern::Sequential;
    req.granularity = 64;
    req.maxRate = seqRate();
    sim::Join *req_done = join;
    switch (b.kind) {
      case PrimKind::Copy:
        eu_bytes = req.bytes = b.seqReadBytes + b.writeBytes;
        break;
      case PrimKind::BitSweep:
        // The free-run walk over both bitmaps is the serial bit loop;
        // the free-list writes overlap with it like on the host.
        eu_bytes = bit_loop_bytes(b.rangeBits);
        req.bytes = b.seqReadBytes + b.writeBytes;
        break;
      case PrimKind::Search:
        // SIMD compare lanes: 32 B of card bytes per cycle.
        eu_bytes = req.bytes = b.seqReadBytes;
        eu_rate = issueRate(cfg_.igpu.euFreqHz, 32);
        break;
      case PrimKind::ScanPush: {
        // Strided reference-block reads, then the dependent random
        // probes — serialized exactly like the host path, because the
        // GPU sits behind the same controller and the probes are
        // pointer-dependent regardless of who issues them.
        eu_bytes = b.seqReadBytes + b.randomBytes;
        req.bytes = b.seqReadBytes;
        req.pattern = mem::AccessPattern::Strided;
        mem::StreamRequest rnd;
        rnd.bytes = (b.randomBytes / 16) * 64;
        rnd.pattern = mem::AccessPattern::Random;
        rnd.granularity = 64;
        rnd.maxRate = randomRate();
        req_done = joins_.acquire(
            1, [this, rnd, join](Tick) { ddr4_.stream(rnd, join); });
        break;
      }
      case PrimKind::BitmapCount:
        // No near-memory bitmap cache: the walked range streams from
        // DRAM every time (the hit rate the Charon units enjoy does
        // not transfer), overlapped with the serial first-fit scan.
        eu_bytes = bit_loop_bytes(b.rangeBits);
        req.bytes = b.seqReadBytes;
        break;
      case PrimKind::RefCount:
        // Scattered count-word RMWs: whole lines per 16 B of payload
        // plus the dirty writebacks, at the random-access rate.
        eu_bytes = req.bytes = (b.randomBytes / 16) * 64 + b.writeBytes;
        req.pattern = mem::AccessPattern::Random;
        req.maxRate = randomRate();
        break;
    }
    euPool_->startFlow(eu_bytes, eu_rate, join);
    ddr4_.stream(req, req_done);
}

double
IgpuDevice::unitBusySeconds() const
{
    return sim::ticksToSeconds(
               static_cast<Tick>(euPool_->utilizedTicks()))
           * cfg_.igpu.computeUnits;
}

double
IgpuDevice::unitEnergyJ(double gc_seconds) const
{
    const auto &g = cfg_.igpu;
    return unitPoolEnergyJ(unitBusySeconds(), g.computeUnits, gc_seconds,
                           g.activePowerW, g.idlePowerW);
}

} // namespace charon::accel
