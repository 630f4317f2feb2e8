#include "ddr4.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace charon::mem
{

Ddr4Memory::Ddr4Memory(sim::EventQueue &eq, const sim::Ddr4Config &cfg,
                       const sim::Instrumentation &instr)
    : eq_(eq), cfg_(cfg)
{
    double per_channel =
        sim::gbPerSecToBytesPerTick(cfg_.perChannelGBs);
    channels_.reserve(static_cast<std::size_t>(cfg_.channels));
    for (int ch = 0; ch < cfg_.channels; ++ch) {
        channels_.push_back(std::make_unique<FluidChannel>(
            eq_, sim::format("ddr4.ch%d", ch), per_channel, instr));
    }
}

double
Ddr4Memory::peakRate() const
{
    return sim::gbPerSecToBytesPerTick(cfg_.totalGBs());
}

double
Ddr4Memory::efficiency(AccessPattern pattern) const
{
    // Derivation, per channel (DDR4-2133-ish from Table 2 timing):
    //   burst time for 64 B: tBurst ~= 4 * tCK ~= 3.75 ns.
    //   row cycle tRC = tRAS + tRP ~= 48.5 ns.
    // Sequential streams hit open rows; losses come from refresh,
    // read/write turnaround and rank switching (~10%).
    // Random 64 B streams pay precharge/activate on most accesses;
    // with 32 banks/channel bank-parallelism no longer binds, but bus
    // scheduling gaps and row misses leave ~60-70% of peak (matches
    // measured STREAM-vs-pointer-chase ratios on Haswell-class parts).
    switch (pattern) {
      case AccessPattern::Sequential:
        return 0.90;
      case AccessPattern::Strided:
        return 0.75;
      case AccessPattern::Random:
        return 0.65;
    }
    return 0.65;
}

sim::Tick
Ddr4Memory::latency(AccessPattern pattern) const
{
    // Average loaded round-trip latency for one access:
    //   row hit : tCAS + transfer + controller/queueing
    //   row miss: tRP + tRCD + tCAS + transfer + controller/queueing
    // Controller + on-chip network adder modelled as a flat 25 ns
    // (typical measured idle DRAM latency on Westmere is ~65-75 ns).
    const double transfer_ns = 4 * cfg_.tCkNs;
    const double controller_ns = 25.0;
    double ns = 0;
    switch (pattern) {
      case AccessPattern::Sequential:
        // Mostly row hits.
        ns = cfg_.tCasNs + transfer_ns + controller_ns;
        break;
      case AccessPattern::Strided:
        ns = 0.5 * (cfg_.tRpNs + cfg_.tRcdNs) + cfg_.tCasNs
             + transfer_ns + controller_ns;
        break;
      case AccessPattern::Random:
        ns = cfg_.tRpNs + cfg_.tRcdNs + cfg_.tCasNs + transfer_ns
             + controller_ns;
        break;
    }
    return sim::nsToTicks(ns);
}

void
Ddr4Memory::stream(const StreamRequest &req, sim::Join *done)
{
    CHARON_ASSERT(!channels_.empty(), "ddr4 has no channels");
    // Cache-line interleaving spreads any stream larger than a few
    // lines evenly over all channels; split it accordingly and arrive
    // on @p done when the last slice drains.
    //
    // DRAM inefficiency (row misses, turnarounds) occupies the shared
    // bus just like useful data does, so a stream of B useful bytes is
    // pushed through the channel as B/efficiency occupancy-bytes; the
    // useful-byte count is kept separately for energy accounting.
    const auto n = channels_.size();
    const double eff = efficiency(req.pattern);
    usefulBytes_ += static_cast<double>(req.bytes);
    sim::Join *join = joins_.acquire(n, done);
    std::uint64_t inflated =
        static_cast<std::uint64_t>(static_cast<double>(req.bytes) / eff);
    std::uint64_t base = inflated / n;
    std::uint64_t extra = inflated % n;
    for (std::size_t ch = 0; ch < n; ++ch) {
        std::uint64_t slice = base + (ch < extra ? 1 : 0);
        // A requester able to consume maxRate useful bytes/tick
        // occupies the bus at maxRate/eff.
        double rate =
            req.maxRate > 0
                ? (req.maxRate / static_cast<double>(n)) / eff
                : 0;
        channels_[ch]->startFlow(slice, rate, join);
    }
}

double
Ddr4Memory::totalBytes() const
{
    return usefulBytes_;
}

double
Ddr4Memory::energyPj() const
{
    return totalBytes() * 8.0 * cfg_.energyPjPerBit;
}

double
Ddr4Memory::utilization(sim::Tick elapsed) const
{
    if (elapsed == 0)
        return 0;
    double utilized = 0;
    for (const auto &ch : channels_)
        utilized += ch->utilizedTicks();
    return utilized / (static_cast<double>(elapsed)
                       * static_cast<double>(channels_.size()));
}

void
Ddr4Memory::dumpStats(std::ostream &os) const
{
    for (const auto &ch : channels_)
        ch->dumpStats(os);
}

} // namespace charon::mem
