#include "cxl.hh"

#include <algorithm>

namespace charon::accel
{

using gc::PrimKind;
using sim::Tick;

namespace
{

/** Issue bandwidth of one memory-side unit in bytes/tick. */
double
unitIssueRate(double freq_hz, int bytes_per_cycle)
{
    return sim::gbPerSecToBytesPerTick(freq_hz * bytes_per_cycle / 1e9);
}

} // namespace

CxlDevice::CxlDevice(sim::EventQueue &eq, mem::Ddr4Memory &ddr4,
                     const sim::SystemConfig &cfg,
                     const sim::Instrumentation &instr)
    : eq_(eq), ddr4_(ddr4), cfg_(cfg),
      hostPort_(eq, ddr4, cfg.cxl, instr)
{
    const auto &x = cfg_.cxl;
    unitPool_ = std::make_unique<mem::FluidChannel>(
        eq_, "cxl.units",
        x.deviceUnits * unitIssueRate(x.unitFreqHz, 64), instr);
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
                      mem::StreamCallback done)
{
    if (b.invocations == 0) {
        Tick now = eq_.now();
        eq_.schedule(now, [done, now] {
            if (done)
                done(now);
        });
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

    const Tick overhead =
        (offloadOverhead(0) + floor) * b.invocations;
    packetBytes_ += static_cast<double>(b.invocations) * 128.0;

    mem::StreamCallback wrapped = [this, overhead, done](Tick t) {
        eq_.schedule(t + overhead, [done, t, overhead] {
            if (done)
                done(t + overhead);
        });
    };

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

    const int parts = 2 + (snoop_bytes != 0 ? 1 : 0);
    sim::Join *join =
        joins_.acquire(parts, sim::JoinPool::wrap(std::move(wrapped)));
    auto arrive = [join](Tick t) { join->arrive(t); };
    if (snoop_bytes != 0)
        hostPort_.link().startFlow(snoop_bytes, 0, join);

    double unit_rate = unitIssueRate(cfg_.cxl.unitFreqHz, 64);
    switch (b.kind) {
      case PrimKind::Copy: {
        unitPool_->startFlow(b.seqReadBytes + b.writeBytes, unit_rate, join);
        mem::StreamRequest req;
        req.bytes = b.seqReadBytes + b.writeBytes;
        req.pattern = mem::AccessPattern::Sequential;
        req.granularity = 64;
        req.maxRate = devRate(mem::AccessPattern::Sequential);
        ddr4_.stream(req, arrive);
        break;
      }
      case PrimKind::Search: {
        // 32 B/cycle compare datapath, like the Charon unit.
        unitPool_->startFlow(
            b.seqReadBytes,
            unitIssueRate(cfg_.cxl.unitFreqHz, 32), join);
        mem::StreamRequest req;
        req.bytes = b.seqReadBytes;
        req.pattern = mem::AccessPattern::Sequential;
        req.granularity = 64;
        req.maxRate = devRate(mem::AccessPattern::Sequential);
        ddr4_.stream(req, arrive);
        break;
      }
      case PrimKind::ScanPush: {
        // Strided reference-block reads then the dependent probes,
        // both against raw expander DRAM.
        unitPool_->startFlow(b.seqReadBytes + b.randomBytes, unit_rate, join);
        mem::StreamRequest seq;
        seq.bytes = b.seqReadBytes;
        seq.pattern = mem::AccessPattern::Strided;
        seq.granularity = 64;
        seq.maxRate = devRate(mem::AccessPattern::Strided);
        mem::StreamRequest rnd;
        rnd.bytes = b.randomBytes;
        rnd.pattern = mem::AccessPattern::Random;
        rnd.granularity = 16;
        rnd.maxRate = devRate(mem::AccessPattern::Random);
        auto self = this;
        ddr4_.stream(seq, [self, rnd, arrive](Tick) {
            self->ddr4_.stream(rnd, arrive);
        });
        break;
      }
      case PrimKind::BitmapCount: {
        unitPool_->startFlow(std::max<std::uint64_t>(b.rangeBits / 8, 1),
                             unit_rate, join);
        mem::StreamRequest req;
        req.bytes = b.seqReadBytes;
        req.pattern = mem::AccessPattern::Sequential;
        req.granularity = 64;
        req.maxRate = devRate(mem::AccessPattern::Sequential);
        ddr4_.stream(req, arrive);
        break;
      }
      case PrimKind::BitSweep: {
        unitPool_->startFlow(b.seqReadBytes + b.writeBytes, unit_rate, join);
        mem::StreamRequest req;
        req.bytes = b.seqReadBytes + b.writeBytes;
        req.pattern = mem::AccessPattern::Sequential;
        req.granularity = 64;
        req.maxRate = devRate(mem::AccessPattern::Sequential);
        ddr4_.stream(req, arrive);
        break;
      }
      case PrimKind::RefCount: {
        // 16 B RMWs near the DRAM: no line inflation, no writeback
        // over a link — the memory-side win for scattered updates.
        unitPool_->startFlow(b.randomBytes + b.writeBytes, unit_rate, join);
        mem::StreamRequest rnd;
        rnd.bytes = b.randomBytes + b.writeBytes;
        rnd.pattern = mem::AccessPattern::Random;
        rnd.granularity = 16;
        rnd.maxRate = devRate(mem::AccessPattern::Random);
        ddr4_.stream(rnd, arrive);
        break;
      }
    }
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
    double busy = unitBusySeconds();
    double unit_seconds = x.deviceUnits * gc_seconds;
    return busy * x.unitActivePowerW
           + std::max(0.0, unit_seconds - busy) * x.unitIdlePowerW;
}

} // namespace charon::accel
