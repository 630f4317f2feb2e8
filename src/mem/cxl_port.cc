#include "cxl_port.hh"

#include <algorithm>

namespace charon::mem
{

using sim::Tick;

CxlHostPort::CxlHostPort(sim::EventQueue &eq, Ddr4Memory &dram,
                         const sim::CxlConfig &cfg,
                         const sim::Instrumentation &instr)
    : eq_(eq), dram_(dram), cfg_(cfg),
      link_(eq, "cxl.link", sim::gbPerSecToBytesPerTick(cfg.linkGBs),
            instr)
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
CxlHostPort::stream(const StreamRequest &req, StreamCallback done)
{
    // The transfer occupies the link (flit headers inflate the
    // payload: 8 B per 64 B) and the expander DRAM concurrently; the
    // slower drains last, then one round trip is exposed delivering
    // the tail response.
    const Tick rt = 2 * linkLatency();
    std::uint64_t link_bytes = req.bytes + (req.bytes / 64) * 8;
    sim::JoinPool *joins = &joins_;
    sim::EventQueue *eq = &eq_;
    StreamCallback shifted = [eq, done = std::move(done), rt](Tick t) {
        eq->schedule(t + rt, [done, t, rt] {
            if (done)
                done(t + rt);
        });
    };
    sim::Join *join =
        joins->acquire(2, sim::JoinPool::wrap(std::move(shifted)));
    link_.startFlow(link_bytes, req.maxRate, join);
    dram_.stream(req, [join](Tick t) { join->arrive(t); });
}

} // namespace charon::mem
