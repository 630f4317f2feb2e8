#include "hmc.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace charon::hmc
{

HmcMemory::HmcMemory(sim::EventQueue &eq, const sim::HmcConfig &cfg,
                     const sim::Instrumentation &instr)
    : eq_(eq), cfg_(cfg), hostPort_(*this)
{
    CHARON_ASSERT(mem::isPow2(static_cast<std::uint64_t>(cfg_.cubes)),
                  "cube count must be a power of two");
    double internal_rate =
        sim::gbPerSecToBytesPerTick(cfg_.internalGBsPerCube);
    for (int c = 0; c < cfg_.cubes; ++c) {
        internal_.push_back(std::make_unique<mem::FluidChannel>(
            eq_, sim::format("hmc.cube%d.tsv", c), internal_rate,
            instr));
    }
    double link_rate = sim::gbPerSecToBytesPerTick(cfg_.linkGBs);
    // links_[0] is host<->cube0; one more per satellite cube.
    for (int l = 0; l < cfg_.cubes; ++l) {
        links_.push_back(std::make_unique<mem::FluidChannel>(
            eq_, sim::format("hmc.link%d", l), link_rate, instr));
    }
}

void
HmcMemory::degradeLink(int link, double factor)
{
    CHARON_ASSERT(link >= 0
                      && static_cast<std::size_t>(link) < links_.size(),
                  "bad link index %d", link);
    mem::FluidChannel &ch = *links_[static_cast<std::size_t>(link)];
    ch.setCapacity(ch.capacity() * factor);
}

void
HmcMemory::degradeCube(int cube, double factor)
{
    CHARON_ASSERT(cube >= 0
                      && static_cast<std::size_t>(cube)
                             < internal_.size(),
                  "bad cube index %d", cube);
    mem::FluidChannel &ch = *internal_[static_cast<std::size_t>(cube)];
    ch.setCapacity(ch.capacity() * factor);
}

void
HmcMemory::setCubeShift(int shift)
{
    CHARON_ASSERT(shift > 0 && shift < 48, "bad cube shift %d", shift);
    cubeShift_ = shift;
}

int
HmcMemory::cubeOf(mem::Addr addr) const
{
    return static_cast<int>((addr >> cubeShift_)
                            & static_cast<mem::Addr>(cfg_.cubes - 1));
}

double
HmcMemory::efficiency(mem::AccessPattern pattern) const
{
    // HMC is a closed-page architecture with 32 vaults x 8 banks per
    // cube: even random streams keep many banks busy, so the penalty
    // for randomness is much smaller than on DDR4 (this is one of the
    // reasons near-memory GC wins).  Sequential loses ~10% to command
    // overhead; random at vault granularity ~20%.
    switch (pattern) {
      case mem::AccessPattern::Sequential:
        return 0.90;
      case mem::AccessPattern::Strided:
        return 0.85;
      case mem::AccessPattern::Random:
        return 0.80;
    }
    return 0.80;
}

int
HmcMemory::hops(const Origin &origin, int cube) const
{
    if (cfg_.topology == sim::HmcTopology::Chain) {
        // Cubes daisy-chained 0-1-2-...; the host hangs off cube 0.
        int from = origin.isHost ? -1 : origin.cube;
        return cube > from ? cube - from : from - cube;
    }
    if (origin.isHost)
        return cube == 0 ? 1 : 2; // host->cube0 [->cube i]
    if (origin.cube == cube)
        return 0;
    if (origin.cube == 0 || cube == 0)
        return 1; // centre <-> satellite
    return 2;     // satellite -> centre -> satellite
}

sim::Tick
HmcMemory::localLatency(mem::AccessPattern pattern) const
{
    // Closed-page DRAM access: tRCD + tCAS + transfer + vault
    // controller.  Pattern matters little (no row buffer to miss);
    // random pays an occasional bank conflict.
    const double transfer_ns = 2 * cfg_.tCkNs;
    const double controller_ns = 8.0;
    double ns = cfg_.tRcdNs + cfg_.tCasNs + transfer_ns + controller_ns;
    if (pattern == mem::AccessPattern::Random)
        ns += 0.25 * cfg_.tRpNs; // occasional bank-busy stall
    return sim::nsToTicks(ns);
}

sim::Tick
HmcMemory::latency(const Origin &origin, mem::Addr addr,
                   mem::AccessPattern pattern) const
{
    int h = hops(origin, cubeOf(addr));
    // Each hop adds link latency twice (request + response) plus a
    // SerDes/route adder folded into linkLatency.
    return localLatency(pattern)
           + static_cast<sim::Tick>(2 * h) * cfg_.linkLatency();
}

sim::Tick
HmcMemory::worstLatency() const
{
    return localLatency(mem::AccessPattern::Random)
           + 4 * cfg_.linkLatency();
}

void
HmcMemory::stream(const Origin &origin, const mem::StreamRequest &req,
                  sim::Join *done)
{
    // Split [addr, addr+bytes) into per-cube segments.  With the
    // region interleaving, a segment boundary falls every
    // 2^cubeShift bytes.
    const std::uint64_t region = 1ull << cubeShift_;
    auto &segments = segScratch_;
    segments.clear();
    mem::Addr addr = req.addr;
    std::uint64_t left = req.bytes;
    if (left == 0) {
        sim::arriveAt(eq_, done, eq_.now());
        return;
    }
    while (left > 0) {
        std::uint64_t in_region =
            region - (addr & (region - 1));
        std::uint64_t take = std::min(left, in_region);
        int cube = cubeOf(addr);
        if (!segments.empty() && segments.back().cube == cube)
            segments.back().bytes += take;
        else
            segments.push_back({cube, take});
        addr += take;
        left -= take;
    }

    sim::Join *join = joins_.acquire(segments.size(), done);
    // A multi-segment stream divides the requester's issue rate.
    double per_seg_rate =
        req.maxRate > 0
            ? req.maxRate / static_cast<double>(segments.size())
            : 0;
    for (const auto &seg : segments) {
        mem::StreamRequest sub = req;
        sub.maxRate = per_seg_rate;
        streamSegment(origin, seg.cube, sub, seg.bytes, join);
    }
}

void
HmcMemory::streamToCube(const Origin &origin, int cube,
                        const mem::StreamRequest &req, sim::Join *done)
{
    CHARON_ASSERT(cube >= 0 && cube < cfg_.cubes, "bad cube %d", cube);
    if (req.bytes == 0) {
        sim::arriveAt(eq_, done, eq_.now());
        return;
    }
    streamSegment(origin, cube, req, req.bytes, done);
}

void
HmcMemory::streamSegment(const Origin &origin, int cube,
                         const mem::StreamRequest &req,
                         std::uint64_t bytes, sim::Join *done)
{
    usefulBytes_ += static_cast<double>(bytes);
    const int h = hops(origin, cube);
    if (h == 0)
        localBytes_ += static_cast<double>(bytes);

    // Resources on the route: the cube's internal channel plus the
    // links of each hop.
    //
    // Star: link id i == cube i's spoke to the centre; id 0 is the
    // host spoke.  host->c uses link0 (and link c if c != 0); cube
    // a->cube b via the centre uses links a and b.
    //
    // Chain: link id i == the segment between cubes i-1 and i; id 0
    // is the host link to cube 0.  A transfer occupies every segment
    // between its endpoints.
    auto &route = routeScratch_;
    route.clear();
    route.push_back(internal_[static_cast<std::size_t>(cube)].get());
    if (cfg_.topology == sim::HmcTopology::Chain) {
        int from = origin.isHost ? -1 : origin.cube;
        int lo = std::min(from, cube), hi_c = std::max(from, cube);
        if (origin.isHost)
            route.push_back(links_[0].get());
        for (int seg = lo + 1; seg <= hi_c; ++seg) {
            if (seg >= 1)
                route.push_back(
                    links_[static_cast<std::size_t>(seg)].get());
        }
    } else if (origin.isHost) {
        route.push_back(links_[0].get());
        if (cube != 0)
            route.push_back(links_[static_cast<std::size_t>(cube)].get());
    } else if (origin.cube != cube) {
        if (origin.cube != 0)
            route.push_back(
                links_[static_cast<std::size_t>(origin.cube)].get());
        if (cube != 0)
            route.push_back(links_[static_cast<std::size_t>(cube)].get());
    }

    // Occupancy on the DRAM side includes the pattern inefficiency;
    // occupancy on links includes per-request header/tail overhead.
    const double eff = efficiency(req.pattern);
    const std::uint64_t dram_bytes =
        static_cast<std::uint64_t>(static_cast<double>(bytes) / eff);
    const int gran = std::max(req.granularity, cfg_.minRequestBytes);
    const double hdr_factor =
        1.0 + 32.0 / static_cast<double>(gran); // 16 B header + 16 B tail
    const std::uint64_t link_bytes = static_cast<std::uint64_t>(
        static_cast<double>(bytes) * hdr_factor);

    // The join's delay is the tail latency of the final response
    // hop(s); a hop-free segment completes inline.
    sim::Join *join = joins_.acquire(
        route.size(), done,
        sim::Delay(static_cast<sim::Tick>(2 * h) * cfg_.linkLatency()));

    for (std::size_t i = 0; i < route.size(); ++i) {
        bool is_dram = (i == 0);
        std::uint64_t flow_bytes = is_dram ? dram_bytes : link_bytes;
        double rate = 0;
        if (req.maxRate > 0) {
            // The requester cap applies to useful bytes; scale to the
            // occupancy domain of each resource.
            double scale = is_dram ? (1.0 / eff) : hdr_factor;
            rate = req.maxRate * scale;
        }
        route[i]->startFlow(flow_bytes, rate, join);
    }
}

void
HmcMemory::linkStream(int cube_a, int cube_b, std::uint64_t bytes,
                      double max_rate, sim::Join *done)
{
    CHARON_ASSERT(cube_a >= 0 && cube_a < cfg_.cubes
                      && cube_b >= 0 && cube_b < cfg_.cubes,
                  "bad cube pair %d,%d", cube_a, cube_b);
    auto &route = routeScratch_;
    route.clear();
    if (cfg_.topology == sim::HmcTopology::Chain) {
        int lo = std::min(cube_a, cube_b), hi = std::max(cube_a, cube_b);
        for (int seg = lo + 1; seg <= hi; ++seg)
            route.push_back(links_[static_cast<std::size_t>(seg)].get());
    } else if (cube_a != cube_b) {
        if (cube_a != 0)
            route.push_back(links_[static_cast<std::size_t>(cube_a)].get());
        if (cube_b != 0)
            route.push_back(links_[static_cast<std::size_t>(cube_b)].get());
    }
    if (route.empty()) {
        sim::arriveAt(eq_, done, eq_.now());
        return;
    }
    sim::Join *join = joins_.acquire(route.size(), done);
    for (auto *link : route)
        link->startFlow(bytes, max_rate, join);
}

double
HmcMemory::linkBytes() const
{
    double total = 0;
    for (const auto &l : links_)
        total += l->totalBytes();
    return total;
}

double
HmcMemory::energyPj() const
{
    return usefulBytes_ * 8.0 * cfg_.energyPjPerBit
           + linkBytes() * 8.0 * cfg_.linkEnergyPjPerBit;
}

double
HmcMemory::internalPeakRate() const
{
    return sim::gbPerSecToBytesPerTick(cfg_.internalGBsPerCube)
           * cfg_.cubes;
}

double
HmcMemory::hostLinkRate() const
{
    return sim::gbPerSecToBytesPerTick(cfg_.linkGBs);
}

void
HmcMemory::dumpStats(std::ostream &os) const
{
    for (const auto &c : internal_)
        c->dumpStats(os);
    for (const auto &l : links_)
        l->dumpStats(os);
}

void
HmcMemory::resetStats()
{
    usefulBytes_ = 0;
    localBytes_ = 0;
    for (auto &c : internal_)
        c->resetStats();
    for (auto &l : links_)
        l->resetStats();
}

// ---------------------------------------------------------------------
// HostPort

void
HmcMemory::HostPort::stream(const mem::StreamRequest &req,
                            sim::Join *done)
{
    hmc_.stream(Origin::host(), req, done);
}

sim::Tick
HmcMemory::HostPort::latency(mem::AccessPattern pattern) const
{
    // Average hop count over cubes: star is 1 to the centre and 2 to
    // each satellite; a chain is c+1 hops to cube c.
    double avg_hops;
    if (hmc_.cfg_.topology == sim::HmcTopology::Chain)
        avg_hops = (hmc_.cfg_.cubes + 1) / 2.0;
    else
        avg_hops = (1.0 + 2.0 * (hmc_.cfg_.cubes - 1)) / hmc_.cfg_.cubes;
    return hmc_.localLatency(pattern)
           + static_cast<sim::Tick>(
                 2 * avg_hops
                 * static_cast<double>(hmc_.cfg_.linkLatency()));
}

double
HmcMemory::HostPort::peakRate() const
{
    return hmc_.hostLinkRate();
}

int
HmcMemory::HostPort::maxGranularity() const
{
    // The host talks to HMC in cache lines.
    return 64;
}

double
HmcMemory::HostPort::efficiency(mem::AccessPattern pattern) const
{
    return hmc_.efficiency(pattern);
}

} // namespace charon::hmc
