#include "cxl.hh"

#include <algorithm>

namespace charon::accel
{

using gc::PrimKind;
using sim::Tick;

CxlDevice::CxlDevice(sim::EventQueue &eq, mem::Ddr4Memory &ddr4,
                     const sim::SystemConfig &cfg,
                     const sim::Instrumentation &instr)
    : eq_(eq), ddr4_(ddr4), cfg_(cfg),
      hostPort_(eq, ddr4, cfg.cxl, instr)
{
    const auto &x = cfg_.cxl;
    unitPool_ = std::make_unique<mem::FluidChannel>(
        eq_, "cxl.units",
        x.deviceUnits * issueRate(x.unitFreqHz, 64), instr);
}

double
CxlDevice::devRate(mem::AccessPattern pattern) const
{
    // The device sits next to the expander DRAM: raw DRAM latency,
    // no link in the load path, MLP capped by its request buffer.
    Tick lat = ddr4_.latency(pattern);
    return cfg_.cxl.concurrentRequests * 64.0
           / static_cast<double>(lat);
}

Tick
CxlDevice::gcPrologueTicks() const
{
    double seconds = static_cast<double>(cfg_.host.llcSize)
                     / (cfg_.cxl.linkGBs * 1e9)
                     / cfg_.charon.hostFlushScale;
    return sim::secondsToTicks(seconds);
}

Tick
CxlDevice::offloadOverhead(int /*cube*/) const
{
    const auto &x = cfg_.cxl;
    // One 64 B command flit out, one 64 B completion flit back, plus
    // the port-to-port round trip and 2 unit cycles of decode.
    double ser_ns = 128.0 / x.linkGBs;
    double start_ns = 2 * 1e9 / x.unitFreqHz;
    double link_ns = 2.0 * x.linkLatencyNs;
    return sim::nsToTicks(ser_ns + start_ns + link_ns);
}

void
CxlDevice::execBucket(const gc::Bucket &b, double bitmap_hit_rate,
                      sim::Join *done)
{
    if (b.invocations == 0) {
        sim::arriveAt(eq_, done, eq_.now());
        return;
    }

    // Per-invocation exposed latency: the first access from the
    // expander DRAM (pattern-dependent, as for the Charon units) plus
    // the host-managed-translation tax — walkRate of translations
    // (and any fault-poisoned fraction on top) pays a host round trip
    // across the link before the access can issue.
    auto first_access = [this](mem::AccessPattern p) {
        return ddr4_.latency(p);
    };
    Tick floor = 0;
    switch (b.kind) {
      case PrimKind::Copy:
      case PrimKind::Search:
      case PrimKind::BitSweep:
        floor = first_access(mem::AccessPattern::Sequential);
        break;
      case PrimKind::BitmapCount: {
        // A small device-side metadata cache gives the same hit rate
        // the phase measured; hits cost 2 unit cycles.
        double miss_lat = static_cast<double>(
            first_access(mem::AccessPattern::Random));
        double hit_lat = static_cast<double>(
            sim::nsToTicks(2.0 * 1e9 / cfg_.cxl.unitFreqHz));
        floor = static_cast<Tick>(
            (1.0 - bitmap_hit_rate) * miss_lat
            + bitmap_hit_rate * hit_lat);
        break;
      }
      case PrimKind::ScanPush:
        floor = first_access(mem::AccessPattern::Strided) / 2;
        break;
      case PrimKind::RefCount:
        floor = first_access(mem::AccessPattern::Random)
                / static_cast<Tick>(
                      std::max(1, cfg_.cxl.concurrentRequests));
        break;
    }
    double walk_rate = cfg_.cxl.translationWalkRate;
    if (fault_)
        walk_rate += fault_->tlbPoisonRate(eq_.now());
    const Tick host_walk =
        2 * hostPort_.linkLatency()
        + ddr4_.latency(mem::AccessPattern::Random);
    floor += static_cast<Tick>(std::min(walk_rate, 1.0)
                               * static_cast<double>(host_walk));

    const sim::Delay overhead((offloadOverhead(0) + floor) * b.invocations);
    packetBytes_ += static_cast<double>(b.invocations) * 128.0;

    // Writes to host-cacheable GC metadata (mark-bitmap RMWs, count
    // words, free-list nodes) each cost a back-invalidation snoop on
    // the shared link, contending with host demand traffic.
    std::uint64_t snoop_lines = 0;
    if (b.kind == PrimKind::ScanPush)
        snoop_lines = b.bitmapRmwAccesses;
    else if (b.kind == PrimKind::RefCount
             || b.kind == PrimKind::BitSweep)
        snoop_lines = (b.writeBytes + 63) / 64;
    const std::uint64_t snoop_bytes =
        snoop_lines * static_cast<std::uint64_t>(cfg_.cxl.snoopBytes);

    // Every kind is a join of the units' issue, the expander DRAM
    // traffic and any snoops.
    sim::Join *join =
        joins_.acquire(snoop_bytes != 0 ? 3 : 2, done, overhead);
    if (snoop_bytes != 0)
        hostPort_.link().startFlow(snoop_bytes, 0, join);

    std::uint64_t unit_bytes = 0;
    double unit_rate = issueRate(cfg_.cxl.unitFreqHz, 64);
    mem::StreamRequest req;
    req.pattern = mem::AccessPattern::Sequential;
    req.granularity = 64;
    req.maxRate = devRate(mem::AccessPattern::Sequential);
    sim::Join *req_done = join;
    switch (b.kind) {
      case PrimKind::Copy:
      case PrimKind::BitSweep:
        unit_bytes = req.bytes = b.seqReadBytes + b.writeBytes;
        break;
      case PrimKind::Search:
        // 32 B/cycle compare datapath, like the Charon unit.
        unit_bytes = req.bytes = b.seqReadBytes;
        unit_rate = issueRate(cfg_.cxl.unitFreqHz, 32);
        break;
      case PrimKind::ScanPush: {
        // Strided reference-block reads then the dependent probes,
        // both against raw expander DRAM.
        unit_bytes = b.seqReadBytes + b.randomBytes;
        req.bytes = b.seqReadBytes;
        req.pattern = mem::AccessPattern::Strided;
        req.maxRate = devRate(mem::AccessPattern::Strided);
        mem::StreamRequest rnd;
        rnd.bytes = b.randomBytes;
        rnd.pattern = mem::AccessPattern::Random;
        rnd.granularity = 16;
        rnd.maxRate = devRate(mem::AccessPattern::Random);
        req_done = joins_.acquire(
            1, [this, rnd, join](Tick) { ddr4_.stream(rnd, join); });
        break;
      }
      case PrimKind::BitmapCount:
        unit_bytes = std::max<std::uint64_t>(b.rangeBits / 8, 1);
        req.bytes = b.seqReadBytes;
        break;
      case PrimKind::RefCount:
        // 16 B RMWs near the DRAM: no line inflation, no writeback
        // over a link — the memory-side win for scattered updates.
        unit_bytes = req.bytes = b.randomBytes + b.writeBytes;
        req.pattern = mem::AccessPattern::Random;
        req.granularity = 16;
        req.maxRate = devRate(mem::AccessPattern::Random);
        break;
    }
    unitPool_->startFlow(unit_bytes, unit_rate, join);
    ddr4_.stream(req, req_done);
}

double
CxlDevice::unitBusySeconds() const
{
    return sim::ticksToSeconds(
               static_cast<Tick>(unitPool_->utilizedTicks()))
           * cfg_.cxl.deviceUnits;
}

double
CxlDevice::unitEnergyJ(double gc_seconds) const
{
    const auto &x = cfg_.cxl;
    return unitPoolEnergyJ(unitBusySeconds(), x.deviceUnits, gc_seconds,
                           x.unitActivePowerW, x.unitIdlePowerW);
}

} // namespace charon::accel
