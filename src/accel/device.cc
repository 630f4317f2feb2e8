#include "device.hh"

#include <algorithm>

#include "accel/area_energy.hh"
#include "sim/logging.hh"

namespace charon::accel
{

using gc::PrimKind;
using sim::Tick;

CharonUnits
charonUnits(const sim::SystemConfig &cfg)
{
    const auto &ch = cfg.charon;
    const int cubes = cfg.hmc.cubes;
    auto spread = [cubes](int n) { return cubes * std::max(1, n / cubes); };
    return {spread(ch.copySearchUnits), spread(ch.bitmapCountUnits),
            ch.scanPushLocal ? spread(ch.scanPushUnits)
                             : ch.scanPushUnits};
}

double
charonAreaMm2(const sim::SystemConfig &cfg)
{
    const CharonUnits units = charonUnits(cfg);
    sim::SystemConfig laid_out = cfg;
    laid_out.charon.copySearchUnits = units.copySearch;
    laid_out.charon.bitmapCountUnits = units.bitmapCount;
    laid_out.charon.scanPushUnits = units.scanPush;
    return AreaModel(laid_out).totalMm2();
}

CharonDevice::CharonDevice(sim::EventQueue &eq, hmc::HmcMemory &hmc,
                           const sim::SystemConfig &cfg, bool cpu_side,
                           const sim::Instrumentation &instr)
    : eq_(eq), hmc_(hmc), cfg_(cfg), cpuSide_(cpu_side),
      units_(charonUnits(cfg)),
      timeline_(instr.timeline())
{
    const double freq = cfg_.charon.unitFreqHz;
    // One pool per cube the units are spread over, each as wide as
    // its units' combined issue bandwidth.
    auto build = [&](auto &pools, const char *prefix, int n_pools,
                     int units, int bytes_per_cycle) {
        for (int c = 0; c < n_pools; ++c) {
            pools.push_back(std::make_unique<mem::FluidChannel>(
                eq_, sim::format("charon.%s%d", prefix, c),
                units / n_pools * issueRate(freq, bytes_per_cycle),
                instr));
        }
    };
    // Pools are built kind-by-kind (not cube-by-cube) so the counter
    // tracks appear grouped by kind in exported traces.  A Copy/Search
    // unit issues one 256 B request per cycle; a Bitmap Count unit
    // consumes a 64-bit word pair (8 B from each map) per cycle; a
    // Scan&Push unit issues one 16 B request per cycle, all of them
    // on the central cube unless placed locally (Section 4.4).
    const int cubes = cfg_.hmc.cubes;
    build(copySearchPools_, "cs", cubes, units_.copySearch, 256);
    build(bitmapCountPools_, "bc", cubes, units_.bitmapCount, 16);
    build(scanPushPools_, "sp", cfg_.charon.scanPushLocal ? cubes : 1,
          units_.scanPush, 16);
    tlbTrack_ = instr.track("charon.tlb.remote");
}

hmc::Origin
CharonDevice::unitOrigin(int cube) const
{
    if (cpuSide_)
        return hmc::Origin::host();
    return hmc::Origin::onCube(cube);
}

mem::FluidChannel &
CharonDevice::pool(PrimKind kind, int cube)
{
    switch (kind) {
      case PrimKind::Copy:
      case PrimKind::Search:
        return *copySearchPools_[static_cast<std::size_t>(cube)];
      case PrimKind::BitmapCount:
      case PrimKind::BitSweep:
        // Bit Sweep reuses the Bitmap Count units: the sweep datapath
        // is the same word-pair scan logic, emitting free-run extents
        // instead of a live count.
        return *bitmapCountPools_[static_cast<std::size_t>(cube)];
      case PrimKind::ScanPush:
      case PrimKind::RefCount:
        // Ref Count RMWs ride the Scan&Push units: both are random
        // 16 B accesses through the shared address-translation path.
        if (scanPushPools_.size() == 1)
            return *scanPushPools_[0];
        return *scanPushPools_[static_cast<std::size_t>(cube)];
    }
    sim::panic("bad primitive kind");
}

Tick
CharonDevice::offloadOverhead(int cube) const
{
    const auto &ch = cfg_.charon;
    // Packet serialization on the 80 GB/s link (request + response).
    double ser_ns = (ch.requestPacketBytes + ch.responsePacketBytes)
                    / cfg_.hmc.linkGBs; // B / (GB/s) == ns
    // Unit decode/startup: 2 logic-layer cycles.
    double start_ns = 2 * 1e9 / ch.unitFreqHz;
    double link_ns = 0;
    if (!cpuSide_) {
        int hops = 1 + (cube != 0 ? 1 : 0);
        link_ns = 2.0 * hops * cfg_.hmc.linkLatencyNs;
    } else {
        // CPU-side: the doorbell write and response still cross the
        // on-chip uncore to the memory controller (~10 core cycles
        // round trip).
        link_ns = 4.0;
    }
    return sim::nsToTicks(ser_ns + start_ns + link_ns);
}

Tick
CharonDevice::gcPrologueTicks() const
{
    // Bulk LLC flush at GC start so units read current data from
    // DRAM (Section 4.6): LLC size over off-chip bandwidth, scaled by
    // the heap-scale compensation (see CharonConfig::hostFlushScale).
    double seconds = static_cast<double>(cfg_.host.llcSize)
                     / (cfg_.hmc.linkGBs * 1e9)
                     / cfg_.charon.hostFlushScale;
    return sim::secondsToTicks(seconds);
}

int
CharonDevice::unitCube(const gc::Bucket &b) const
{
    if (cpuSide_)
        return 0;
    const bool scan_push_units =
        b.kind == PrimKind::ScanPush || b.kind == PrimKind::RefCount;
    return scan_push_units && !cfg_.charon.scanPushLocal ? 0 : b.srcCube;
}

bool
CharonDevice::remoteStructures(int unit_cube) const
{
    return !cfg_.charon.distributedStructures && !cpuSide_
           && unit_cube != 0;
}

Tick
CharonDevice::firstAccessLatency(mem::AccessPattern p) const
{
    return cpuSide_ ? hmc_.hostPort().latency(p) : hmc_.localLatency(p);
}

void
CharonDevice::execBucket(const gc::Bucket &bucket, double bitmap_hit_rate,
                         sim::Join *done)
{
    if (bucket.invocations == 0) {
        sim::arriveAt(eq_, done, eq_.now());
        return;
    }
    // The blocked host thread pays, per invocation, the offload round
    // trip plus the exposed first-access DRAM latency: the unit
    // receives one primitive at a time, so the initial fetch of each
    // invocation cannot be overlapped with anything (this is what
    // keeps Search at ~3x and small-object Copy near parity in the
    // paper, despite the enormous streaming bandwidth).
    const int unit_cube = unitCube(bucket);
    Tick floor = 0;
    switch (bucket.kind) {
      case PrimKind::Copy:
      case PrimKind::Search:
        floor = firstAccessLatency(mem::AccessPattern::Sequential);
        break;
      case PrimKind::BitmapCount: {
        // Bitmap-cache hits avoid the DRAM round trip (2 unit cycles
        // = 3200 ticks instead); with the unified cache on the
        // central cube, a satellite unit's lookup additionally
        // crosses its spoke link both ways.
        double miss_lat = static_cast<double>(
            firstAccessLatency(mem::AccessPattern::Random));
        double hit_lat = 3200.0;
        if (remoteStructures(unit_cube)) {
            hit_lat +=
                static_cast<double>(2 * cfg_.hmc.linkLatency());
        }
        floor = static_cast<Tick>((1.0 - bitmap_hit_rate) * miss_lat
                                  + bitmap_hit_rate * hit_lat);
        break;
      }
      case PrimKind::ScanPush:
        // The object's reference block must arrive before the probes
        // can issue; command decode overlaps roughly half of it.
        floor = firstAccessLatency(mem::AccessPattern::Strided) / 2;
        break;
      case PrimKind::BitSweep:
        // The sweep streams the bitmaps front to back; only the first
        // word pair is exposed.
        floor = firstAccessLatency(mem::AccessPattern::Sequential);
        break;
      case PrimKind::RefCount:
        // Count updates return no value (the response packet carries
        // no payload), so successive offloads pipeline through the
        // MAI instead of serializing on the RMW round trip; only the
        // 1/maiEntries share of each fetch is exposed.
        floor = firstAccessLatency(mem::AccessPattern::Random)
                / static_cast<Tick>(cfg_.charon.maiEntries);
        break;
    }
    // The bucket's root join fans in its flows and delays completion
    // by the serialized per-invocation overhead.
    const sim::Delay overhead(
        (offloadOverhead(unit_cube) + floor) * bucket.invocations);

    // Copy, Scan&Push and Ref Count responses carry no value; Search
    // and Bitmap Count return one, and Bit Sweep the discovered
    // free-run extents.
    const bool no_value = bucket.kind == PrimKind::Copy
                          || bucket.kind == PrimKind::ScanPush
                          || bucket.kind == PrimKind::RefCount;
    packetBytes_ += static_cast<double>(bucket.invocations)
                    * (cfg_.charon.requestPacketBytes
                       + (no_value ? cfg_.charon.responsePacketNoValBytes
                                   : cfg_.charon.responsePacketBytes));

    const auto cubes = static_cast<std::size_t>(cfg_.hmc.cubes);
    switch (bucket.kind) {
      case PrimKind::Copy:
      case PrimKind::BitSweep:
        execStream(bucket, unit_cube, joins_.acquire(3, done, overhead));
        break;
      case PrimKind::Search:
        execStream(bucket, unit_cube, joins_.acquire(2, done, overhead));
        break;
      case PrimKind::ScanPush:
        // 3 + cubes flows fan out, but the bucket completes on the
        // (2 + cubes)-th: the trailing metadata write is posted, so
        // the host unblocks without waiting for the slowest flow.
        execScanPush(bucket, bitmap_hit_rate, unit_cube,
                     joins_.acquire(3 + cubes, done, overhead,
                                    sim::FireAfter(2 + cubes)));
        break;
      case PrimKind::BitmapCount:
        execBitmapCount(
            bucket, bitmap_hit_rate, unit_cube,
            joins_.acquire(remoteStructures(unit_cube) ? 3 : 2, done,
                           overhead));
        break;
      case PrimKind::RefCount:
        execRefCount(bucket, unit_cube,
                     joins_.acquire(2 + cubes, done, overhead));
        break;
    }
}

void
CharonDevice::execStream(const gc::Bucket &b, int unit_cube,
                         sim::Join *join)
{
    // MAI-limited MLP: 32 in-flight 256 B requests against the access
    // latency seen from this unit.
    const double mai_rate =
        cfg_.charon.maiEntries * 256.0
        / static_cast<double>(
            firstAccessLatency(mem::AccessPattern::Sequential));
    const double freq = cfg_.charon.unitFreqHz;
    std::uint64_t unit_bytes = b.seqReadBytes;
    double unit_rate = 0;
    switch (b.kind) {
      case PrimKind::Copy:
        // One primitive executes on one unit: its combined load+store
        // traffic cannot exceed a single unit's 256 B/cycle issue slot.
        unit_bytes += b.writeBytes;
        unit_rate = std::min(2 * mai_rate, issueRate(freq, 256));
        break;
      case PrimKind::Search:
        // The search datapath compares 32 B of card bytes per cycle
        // (narrower than the 256 B fetch the unit can issue).
        unit_rate = std::min(mai_rate, issueRate(freq, 32));
        break;
      default:
        // The sweep consumes a 64-bit word pair per cycle on a Bitmap
        // Count unit; free-list node writes trickle out behind the
        // scan.
        unit_rate = issueRate(freq, 16);
        break;
    }
    pool(b.kind, unit_cube).startFlow(unit_bytes, unit_rate, join);

    const auto origin = unitOrigin(unit_cube);
    mem::StreamRequest read;
    read.bytes = b.seqReadBytes;
    read.pattern = mem::AccessPattern::Sequential;
    read.granularity = 256;
    read.maxRate = mai_rate;
    hmc_.streamToCube(origin, b.srcCube, read, join);
    if (b.kind == PrimKind::Search)
        return;
    mem::StreamRequest write = read;
    write.bytes = b.writeBytes;
    write.write = true;
    hmc_.streamToCube(origin, b.dstCube, write, join);
}

double
CharonDevice::meanProbeLatency(int unit_cube) const
{
    // Random targets spread over all cubes: average latency from the
    // unit (includes the TLB-slice penalty when the unified TLB lives
    // on the central cube and the unit does not).
    const int cubes = cfg_.hmc.cubes;
    double avg_lat = 0;
    for (int c = 0; c < cubes; ++c) {
        Tick l = cpuSide_
                     ? hmc_.hostPort().latency(mem::AccessPattern::Random)
                     : hmc_.latency(hmc::Origin::onCube(unit_cube),
                                    static_cast<mem::Addr>(c)
                                        << hmc_.cubeShift(),
                                    mem::AccessPattern::Random);
        if (remoteStructures(unit_cube))
            l += 2 * cfg_.hmc.linkLatency(); // remote TLB lookup
        avg_lat += static_cast<double>(l);
    }
    return avg_lat / cubes;
}

void
CharonDevice::scatterProbes(int unit_cube, std::uint64_t probe_bytes,
                            std::uint64_t write_bytes, int home_cube,
                            double rate, sim::Join *join)
{
    const auto origin = unitOrigin(unit_cube);
    const int cubes = cfg_.hmc.cubes;
    mem::StreamRequest rnd;
    rnd.bytes = probe_bytes / static_cast<std::uint64_t>(cubes);
    rnd.pattern = mem::AccessPattern::Random;
    rnd.granularity = 16;
    rnd.maxRate = rate / cubes;
    for (int c = 0; c < cubes; ++c)
        hmc_.streamToCube(origin, c, rnd, join);
    mem::StreamRequest wr = rnd;
    wr.bytes = write_bytes;
    wr.write = true;
    wr.maxRate = rate;
    hmc_.streamToCube(origin, home_cube, wr, join);
}

void
CharonDevice::execScanPush(const gc::Bucket &b, double hit_rate,
                           int unit_cube, sim::Join *join)
{
    // Mark-bitmap RMWs go through the bitmap cache (Section 4.5);
    // hits avoid the memory round trip entirely.
    const std::uint64_t rmw_hits = static_cast<std::uint64_t>(
        static_cast<double>(b.bitmapRmwAccesses) * hit_rate);
    const std::uint64_t mem_accesses = b.randomAccesses - rmw_hits;
    const std::uint64_t mem_random_bytes = b.randomBytes - rmw_hits * 16;

    // Per-invocation MLP is bounded by the references inside one
    // object: the host thread is blocked per offload, so requests
    // from different invocations never overlap (Section 5.2 explains
    // the resulting low speedup on few-reference workloads).
    double refs_per_inv =
        static_cast<double>(mem_accesses)
        / static_cast<double>(b.invocations);
    double mlp = std::clamp(refs_per_inv, 0.25,
                            static_cast<double>(cfg_.charon.maiEntries));
    double avg_lat = meanProbeLatency(unit_cube);
    if (fault_) {
        // Poisoned TLB entries force a host-mediated re-walk: a full
        // off-chip round trip (host link plus the unit's spoke when it
        // is not on the central cube), weighted by the poisoned
        // fraction of translations.
        double poison = fault_->tlbPoisonRate(eq_.now());
        if (poison > 0) {
            int walk_hops = 1 + (unit_cube != 0 ? 1 : 0);
            avg_lat += poison * 2.0 * walk_hops
                       * static_cast<double>(cfg_.hmc.linkLatency());
        }
    }
    if (timeline_ && remoteStructures(unit_cube)) {
        remoteTlbLookups_ += b.invocations;
        timeline_->counter(tlbTrack_, eq_.now(),
                           static_cast<double>(remoteTlbLookups_));
    }
    double random_rate = std::max(mlp, 1.0) * 16.0 / avg_lat;

    pool(PrimKind::ScanPush, unit_cube)
        .startFlow(b.seqReadBytes + b.randomBytes + b.writeBytes,
                   issueRate(cfg_.charon.unitFreqHz, 16), join);

    // Sequential read of the object's reference block.
    mem::StreamRequest seq;
    seq.bytes = b.seqReadBytes;
    seq.pattern = mem::AccessPattern::Strided;
    seq.granularity = 64;
    seq.maxRate = cfg_.charon.maiEntries * 64.0 / avg_lat;
    hmc_.streamToCube(unitOrigin(unit_cube), b.srcCube, seq, join);

    // Random probes of referenced objects, spread over cubes, plus
    // the stack/metadata writes (to the object's home cube).
    scatterProbes(unit_cube, mem_random_bytes, b.writeBytes, b.srcCube,
                  random_rate, join);
}

void
CharonDevice::execBitmapCount(const gc::Bucket &b, double hit_rate,
                              int unit_cube, sim::Join *join)
{
    // Compute: one 64-bit word pair per cycle over both maps, on a
    // single unit.
    pool(PrimKind::BitmapCount, unit_cube)
        .startFlow(b.seqReadBytes,
                   issueRate(cfg_.charon.unitFreqHz, 16), join);

    // Memory: only the bitmap-cache misses reach DRAM, at the 32 B
    // cache-block granularity (Section 4.5: ~90% hit rate measured on
    // the functional cache while tracing).
    std::uint64_t miss_bytes = static_cast<std::uint64_t>(
        static_cast<double>(b.seqReadBytes) * (1.0 - hit_rate));
    mem::StreamRequest miss;
    miss.bytes = miss_bytes;
    miss.pattern = mem::AccessPattern::Random;
    miss.granularity = 32;
    miss.maxRate = cfg_.charon.maiEntries * 32.0
                   / static_cast<double>(
                       hmc_.localLatency(mem::AccessPattern::Random));
    hmc_.streamToCube(unitOrigin(unit_cube), b.srcCube, miss, join);

    // Unified bitmap cache on the central cube: every lookup from a
    // satellite unit crosses that cube's spoke link (the contention
    // Figure 15's distributed design removes).
    if (remoteStructures(unit_cube)) {
        double lookup_rate =
            4 * 32.0 / static_cast<double>(2 * cfg_.hmc.linkLatency());
        hmc_.linkStream(unit_cube, 0, b.seqReadBytes, lookup_rate, join);
    }
}

void
CharonDevice::execRefCount(const gc::Bucket &b, int unit_cube,
                           sim::Join *join)
{
    // Count-word RMWs are scattered like Scan&Push probes and go
    // through the same units and translation path; a unit keeps many
    // independent decrements in flight because, unlike the host, it
    // holds the whole ZCT batch in its command queue.
    //
    // Unlike Scan&Push, successive count updates carry no pointer
    // dependency, so concurrency is bounded by the MAI depth (and by
    // the batch itself for tiny buckets), not by updates/invocation.
    double mlp =
        std::min(static_cast<double>(b.randomAccesses),
                 static_cast<double>(cfg_.charon.maiEntries));
    double random_rate =
        std::max(mlp, 1.0) * 16.0 / meanProbeLatency(unit_cube);

    pool(PrimKind::RefCount, unit_cube)
        .startFlow(b.randomBytes + b.writeBytes,
                   issueRate(cfg_.charon.unitFreqHz, 16), join);

    // The count words spread over every cube; the updated values write
    // back to the same lines (write-through, 16 B granularity).
    scatterProbes(unit_cube, b.randomBytes, b.writeBytes, b.srcCube,
                  random_rate, join);
}

double
CharonDevice::unitBusySeconds() const
{
    // utilizedTicks integrates the pool's utilization; scaled by the
    // pool's unit count it yields unit-seconds of activity.
    double unit_seconds = 0;
    auto add = [&unit_seconds](const auto &pools, int units) {
        const int per_pool = units / static_cast<int>(pools.size());
        for (const auto &p : pools) {
            unit_seconds += sim::ticksToSeconds(static_cast<Tick>(
                                p->utilizedTicks()))
                            * per_pool;
        }
    };
    add(copySearchPools_, units_.copySearch);
    add(bitmapCountPools_, units_.bitmapCount);
    add(scanPushPools_, units_.scanPush);
    return unit_seconds;
}

double
CharonDevice::unitEnergyJ(double gc_seconds) const
{
    const auto &ch = cfg_.charon;
    return unitPoolEnergyJ(unitBusySeconds(), units_.total(), gc_seconds,
                           ch.unitActivePowerW, ch.unitIdlePowerW);
}

double
CharonDevice::areaMm2() const
{
    return charonAreaMm2(cfg_);
}

} // namespace charon::accel
