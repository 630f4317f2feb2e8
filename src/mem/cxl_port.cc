#include "cxl_port.hh"

#include <algorithm>

namespace charon::mem
{

using sim::Tick;

CxlHostPort::CxlHostPort(sim::EventQueue &eq, Ddr4Memory &dram,
                         const sim::CxlConfig &cfg,
                         const sim::Instrumentation &instr)
    : dram_(dram), cfg_(cfg),
      link_(eq, "cxl.link", sim::gbPerSecToBytesPerTick(cfg.linkGBs),
            instr),
      joins_(eq)
{
}

Tick
CxlHostPort::linkLatency() const
{
    return sim::nsToTicks(cfg_.linkLatencyNs);
}

Tick
CxlHostPort::latency(AccessPattern pattern) const
{
    return dram_.latency(pattern) + 2 * linkLatency();
}

double
CxlHostPort::peakRate() const
{
    return std::min(dram_.peakRate(), link_.capacity());
}

void
CxlHostPort::stream(const StreamRequest &req, sim::Join *done)
{
    // The transfer occupies the link (flit headers inflate the
    // payload: 8 B per 64 B) and the expander DRAM concurrently; the
    // slower drains last, then one round trip is exposed delivering
    // the tail response.
    std::uint64_t link_bytes = req.bytes + (req.bytes / 64) * 8;
    sim::Join *join =
        joins_.acquire(2, done, sim::Delay(2 * linkLatency()));
    link_.startFlow(link_bytes, req.maxRate, join);
    dram_.stream(req, join);
}

} // namespace charon::mem
