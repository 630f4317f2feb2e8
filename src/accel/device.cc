#include "device.hh"

#include <algorithm>

#include "accel/area_energy.hh"
#include "sim/logging.hh"

namespace charon::accel
{

using gc::PrimKind;
using sim::Tick;

namespace
{

/** Issue bandwidth of one unit in bytes/tick at @p bytes per cycle. */
double
issueRate(double freq_hz, int bytes_per_cycle)
{
    return sim::gbPerSecToBytesPerTick(freq_hz * bytes_per_cycle / 1e9);
}

} // namespace

CharonDevice::CharonDevice(sim::EventQueue &eq, hmc::HmcMemory &hmc,
                           const sim::SystemConfig &cfg,
                           const sim::Instrumentation &instr)
    : eq_(eq), hmc_(hmc), cfg_(cfg), timeline_(instr.timeline())
{
    const auto &ch = cfg_.charon;
    const int cubes = cfg_.hmc.cubes;
    const int cs_per_cube = std::max(1, ch.copySearchUnits / cubes);
    const int bc_per_cube = std::max(1, ch.bitmapCountUnits / cubes);

    // Pools are built kind-by-kind (not cube-by-cube) so the counter
    // tracks appear grouped by kind in exported traces.
    for (int c = 0; c < cubes; ++c) {
        // A Copy/Search unit issues one 256 B request per cycle.
        copySearchPools_.push_back(std::make_unique<mem::FluidChannel>(
            eq_, sim::format("charon.cs%d", c),
            cs_per_cube * issueRate(ch.unitFreqHz, 256), instr));
    }
    for (int c = 0; c < cubes; ++c) {
        // A Bitmap Count unit consumes a 64-bit word pair (8 B from
        // each map) per cycle.
        bitmapCountPools_.push_back(std::make_unique<mem::FluidChannel>(
            eq_, sim::format("charon.bc%d", c),
            bc_per_cube * issueRate(ch.unitFreqHz, 16), instr));
    }
    if (ch.scanPushLocal) {
        const int sp_per_cube = std::max(1, ch.scanPushUnits / cubes);
        for (int c = 0; c < cubes; ++c) {
            scanPushPools_.push_back(std::make_unique<mem::FluidChannel>(
                eq_, sim::format("charon.sp%d", c),
                sp_per_cube * issueRate(ch.unitFreqHz, 16), instr));
        }
    } else {
        // All Scan&Push units on the central cube (Section 4.4).
        scanPushPools_.push_back(std::make_unique<mem::FluidChannel>(
            eq_, "charon.sp0",
            ch.scanPushUnits * issueRate(ch.unitFreqHz, 16), instr));
    }
    tlbTrack_ = instr.track("charon.tlb.remote");
}

hmc::Origin
CharonDevice::unitOrigin(int cube) const
{
    if (cfg_.charon.cpuSide)
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
    if (!ch.cpuSide) {
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

void
CharonDevice::execBucket(const gc::Bucket &bucket, double bitmap_hit_rate,
                         mem::StreamCallback done)
{
    if (bucket.invocations == 0) {
        Tick now = eq_.now();
        eq_.schedule(now, [done, now] {
            if (done)
                done(now);
        });
        return;
    }
    // The blocked host thread pays, per invocation, the offload round
    // trip plus the exposed first-access DRAM latency: the unit
    // receives one primitive at a time, so the initial fetch of each
    // invocation cannot be overlapped with anything (this is what
    // keeps Search at ~3x and small-object Copy near parity in the
    // paper, despite the enormous streaming bandwidth).
    const int unit_cube =
        ((bucket.kind == PrimKind::ScanPush
          || bucket.kind == PrimKind::RefCount)
         && scanPushPools_.size() == 1 && !cfg_.charon.cpuSide)
            ? 0
            : bucket.srcCube;
    // A CPU-side unit (Figure 16) sees the full off-chip round trip
    // on every first access; a logic-layer unit sees the local vault.
    auto first_access_lat = [this](mem::AccessPattern p) {
        return cfg_.charon.cpuSide ? hmc_.hostPort().latency(p)
                                   : hmc_.localLatency(p);
    };
    Tick floor = 0;
    switch (bucket.kind) {
      case PrimKind::Copy:
      case PrimKind::Search:
        floor = first_access_lat(mem::AccessPattern::Sequential);
        break;
      case PrimKind::BitmapCount: {
        // Bitmap-cache hits avoid the DRAM round trip (2 unit cycles
        // = 3200 ticks instead); with the unified cache on the
        // central cube, a satellite unit's lookup additionally
        // crosses its spoke link both ways.
        double miss_lat = static_cast<double>(
            first_access_lat(mem::AccessPattern::Random));
        double hit_lat = 3200.0;
        if (!cfg_.charon.distributedStructures && !cfg_.charon.cpuSide
            && unit_cube != 0) {
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
        floor = first_access_lat(mem::AccessPattern::Strided) / 2;
        break;
      case PrimKind::BitSweep:
        // The sweep streams the bitmaps front to back; only the first
        // word pair is exposed.
        floor = first_access_lat(mem::AccessPattern::Sequential);
        break;
      case PrimKind::RefCount:
        // Count updates return no value (the response packet carries
        // no payload), so successive offloads pipeline through the
        // MAI instead of serializing on the RMW round trip; only the
        // 1/maiEntries share of each fetch is exposed.
        floor = first_access_lat(mem::AccessPattern::Random)
                / static_cast<Tick>(cfg_.charon.maiEntries);
        break;
    }
    const Tick overhead =
        (offloadOverhead(unit_cube) + floor) * bucket.invocations;
    auto wrapped = [this, overhead, done](Tick t) {
        eq_.schedule(t + overhead, [done, t, overhead] {
            if (done)
                done(t + overhead);
        });
    };

    switch (bucket.kind) {
      case PrimKind::Copy:
        packetBytes_ += static_cast<double>(bucket.invocations)
                        * (cfg_.charon.requestPacketBytes
                           + cfg_.charon.responsePacketNoValBytes);
        execCopy(bucket, wrapped);
        break;
      case PrimKind::Search:
        packetBytes_ += static_cast<double>(bucket.invocations)
                        * (cfg_.charon.requestPacketBytes
                           + cfg_.charon.responsePacketBytes);
        execSearch(bucket, wrapped);
        break;
      case PrimKind::ScanPush:
        packetBytes_ += static_cast<double>(bucket.invocations)
                        * (cfg_.charon.requestPacketBytes
                           + cfg_.charon.responsePacketNoValBytes);
        execScanPush(bucket, bitmap_hit_rate, wrapped);
        break;
      case PrimKind::BitmapCount:
        packetBytes_ += static_cast<double>(bucket.invocations)
                        * (cfg_.charon.requestPacketBytes
                           + cfg_.charon.responsePacketBytes);
        execBitmapCount(bucket, bitmap_hit_rate, wrapped);
        break;
      case PrimKind::BitSweep:
        // The response carries the discovered free-run extents.
        packetBytes_ += static_cast<double>(bucket.invocations)
                        * (cfg_.charon.requestPacketBytes
                           + cfg_.charon.responsePacketBytes);
        execBitSweep(bucket, wrapped);
        break;
      case PrimKind::RefCount:
        packetBytes_ += static_cast<double>(bucket.invocations)
                        * (cfg_.charon.requestPacketBytes
                           + cfg_.charon.responsePacketNoValBytes);
        execRefCount(bucket, wrapped);
        break;
    }
}

void
CharonDevice::execCopy(const gc::Bucket &b, mem::StreamCallback done)
{
    const int unit_cube = cfg_.charon.cpuSide ? 0 : b.srcCube;
    const auto origin = unitOrigin(b.srcCube);
    // MAI-limited MLP: 32 in-flight 256 B requests against the access
    // latency seen from this unit.
    Tick lat = cfg_.charon.cpuSide
                   ? hmc_.hostPort().latency(mem::AccessPattern::Sequential)
                   : hmc_.localLatency(mem::AccessPattern::Sequential);
    double mai_rate = cfg_.charon.maiEntries * 256.0
                      / static_cast<double>(lat);

    sim::Join *join = joins_.acquire(
        3, sim::JoinPool::wrap(std::move(done)));
    auto arrive = [join](Tick t) { join->arrive(t); };

    // One primitive executes on one unit: its combined load+store
    // traffic cannot exceed a single unit's 256 B/cycle issue slot.
    double unit_issue = issueRate(cfg_.charon.unitFreqHz, 256);
    pool(PrimKind::Copy, unit_cube)
        .startFlow(b.seqReadBytes + b.writeBytes,
                   std::min(2 * mai_rate, unit_issue), join);

    mem::StreamRequest read;
    read.bytes = b.seqReadBytes;
    read.pattern = mem::AccessPattern::Sequential;
    read.granularity = 256;
    read.maxRate = mai_rate;
    hmc_.streamToCube(origin, b.srcCube, read, arrive);

    mem::StreamRequest write = read;
    write.bytes = b.writeBytes;
    write.write = true;
    hmc_.streamToCube(origin, b.dstCube, write, arrive);
}

void
CharonDevice::execSearch(const gc::Bucket &b, mem::StreamCallback done)
{
    const int unit_cube = cfg_.charon.cpuSide ? 0 : b.srcCube;
    const auto origin = unitOrigin(b.srcCube);
    Tick lat = cfg_.charon.cpuSide
                   ? hmc_.hostPort().latency(mem::AccessPattern::Sequential)
                   : hmc_.localLatency(mem::AccessPattern::Sequential);
    double mai_rate = cfg_.charon.maiEntries * 256.0
                      / static_cast<double>(lat);

    sim::Join *join = joins_.acquire(
        2, sim::JoinPool::wrap(std::move(done)));
    auto arrive = [join](Tick t) { join->arrive(t); };

    // The search datapath compares 32 B of card bytes per cycle
    // (narrower than the 256 B fetch the unit can issue).
    double compare_rate =
        sim::gbPerSecToBytesPerTick(cfg_.charon.unitFreqHz * 32 / 1e9);
    pool(PrimKind::Search, unit_cube)
        .startFlow(b.seqReadBytes, std::min(mai_rate, compare_rate), join);
    mem::StreamRequest read;
    read.bytes = b.seqReadBytes;
    read.pattern = mem::AccessPattern::Sequential;
    read.granularity = 256;
    read.maxRate = mai_rate;
    hmc_.streamToCube(origin, b.srcCube, read, arrive);
}

void
CharonDevice::execScanPush(const gc::Bucket &b, double hit_rate,
                           mem::StreamCallback done)
{
    // Mark-bitmap RMWs go through the bitmap cache (Section 4.5);
    // hits avoid the memory round trip entirely.
    const std::uint64_t rmw_hits = static_cast<std::uint64_t>(
        static_cast<double>(b.bitmapRmwAccesses) * hit_rate);
    const std::uint64_t mem_accesses = b.randomAccesses - rmw_hits;
    const std::uint64_t mem_random_bytes = b.randomBytes - rmw_hits * 16;
    const bool local = cfg_.charon.scanPushLocal;
    const int unit_cube =
        cfg_.charon.cpuSide ? 0 : (local ? b.srcCube : 0);
    const auto origin = unitOrigin(unit_cube);
    const int cubes = cfg_.hmc.cubes;

    bool remote_tlb = false;
    // Per-invocation MLP is bounded by the references inside one
    // object: the host thread is blocked per offload, so requests
    // from different invocations never overlap (Section 5.2 explains
    // the resulting low speedup on few-reference workloads).
    double refs_per_inv =
        static_cast<double>(mem_accesses)
        / static_cast<double>(b.invocations);
    double mlp = std::clamp(refs_per_inv, 0.25,
                            static_cast<double>(cfg_.charon.maiEntries));
    // Random targets spread over all cubes: average latency from the
    // unit (includes TLB-slice penalty when the unified TLB lives on
    // the central cube and the unit does not).
    double avg_lat = 0;
    for (int c = 0; c < cubes; ++c) {
        Tick l = cfg_.charon.cpuSide
                     ? hmc_.hostPort().latency(mem::AccessPattern::Random)
                     : hmc_.latency(hmc::Origin::onCube(unit_cube),
                                    static_cast<mem::Addr>(c)
                                        << hmc_.cubeShift(),
                                    mem::AccessPattern::Random);
        if (!cfg_.charon.distributedStructures && !cfg_.charon.cpuSide
            && unit_cube != 0) {
            l += 2 * cfg_.hmc.linkLatency(); // remote TLB lookup
            remote_tlb = true;
        }
        avg_lat += static_cast<double>(l);
    }
    avg_lat /= cubes;
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
    if (timeline_ && remote_tlb) {
        remoteTlbLookups_ += b.invocations;
        timeline_->counter(tlbTrack_, eq_.now(),
                           static_cast<double>(remoteTlbLookups_));
    }
    double random_rate = std::max(mlp, 1.0) * 16.0 / avg_lat;

    // 3 + cubes flows fan out below, but the bucket completes on the
    // (2 + cubes)-th: the trailing metadata write is posted, so the
    // host unblocks without waiting for the slowest flow.
    sim::Join *join = joins_.acquire(
        3 + static_cast<std::size_t>(cubes),
        sim::JoinPool::wrap(std::move(done)),
        /*fire_after=*/2 + static_cast<std::size_t>(cubes));
    auto arrive = [join](Tick t) { join->arrive(t); };

    pool(PrimKind::ScanPush, unit_cube)
        .startFlow(b.seqReadBytes + b.randomBytes + b.writeBytes,
                   issueRate(cfg_.charon.unitFreqHz, 16), join);

    // Sequential read of the object's reference block.
    mem::StreamRequest seq;
    seq.bytes = b.seqReadBytes;
    seq.pattern = mem::AccessPattern::Strided;
    seq.granularity = 64;
    seq.maxRate = cfg_.charon.maiEntries * 64.0 / avg_lat;
    hmc_.streamToCube(origin, b.srcCube, seq, arrive);

    // Random probes of referenced objects, spread over cubes, plus
    // the stack/metadata writes (to the object's home cube).
    for (int c = 0; c < cubes; ++c) {
        mem::StreamRequest rnd;
        rnd.bytes = mem_random_bytes / static_cast<std::uint64_t>(cubes);
        rnd.pattern = mem::AccessPattern::Random;
        rnd.granularity = 16;
        rnd.maxRate = random_rate / cubes;
        hmc_.streamToCube(origin, c, rnd, arrive);
    }
    mem::StreamRequest wr;
    wr.bytes = b.writeBytes;
    wr.write = true;
    wr.pattern = mem::AccessPattern::Random;
    wr.granularity = 16;
    wr.maxRate = random_rate;
    hmc_.streamToCube(origin, b.srcCube, wr, arrive);
}

void
CharonDevice::execBitmapCount(const gc::Bucket &b, double hit_rate,
                              mem::StreamCallback done)
{
    const int unit_cube = cfg_.charon.cpuSide ? 0 : b.srcCube;
    const auto origin = unitOrigin(b.srcCube);

    const bool remote_cache = !cfg_.charon.distributedStructures
                              && !cfg_.charon.cpuSide && unit_cube != 0;
    sim::Join *join = joins_.acquire(
        remote_cache ? 3u : 2u, sim::JoinPool::wrap(std::move(done)));
    auto arrive = [join](Tick t) { join->arrive(t); };

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
    hmc_.streamToCube(origin, b.srcCube, miss, arrive);

    // Unified bitmap cache on the central cube: every lookup from a
    // satellite unit crosses that cube's spoke link (the contention
    // Figure 15's distributed design removes).
    if (remote_cache) {
        double lookup_rate =
            4 * 32.0 / static_cast<double>(2 * cfg_.hmc.linkLatency());
        hmc_.linkStream(unit_cube, 0, b.seqReadBytes, lookup_rate,
                        arrive);
    }
}

void
CharonDevice::execBitSweep(const gc::Bucket &b, mem::StreamCallback done)
{
    const int unit_cube = cfg_.charon.cpuSide ? 0 : b.srcCube;
    const auto origin = unitOrigin(b.srcCube);
    Tick lat = cfg_.charon.cpuSide
                   ? hmc_.hostPort().latency(mem::AccessPattern::Sequential)
                   : hmc_.localLatency(mem::AccessPattern::Sequential);
    double mai_rate = cfg_.charon.maiEntries * 256.0
                      / static_cast<double>(lat);

    sim::Join *join = joins_.acquire(
        3, sim::JoinPool::wrap(std::move(done)));
    auto arrive = [join](Tick t) { join->arrive(t); };

    // The sweep consumes a 64-bit word pair per cycle on a Bitmap
    // Count unit; free-list node writes trickle out behind the scan.
    pool(PrimKind::BitSweep, unit_cube)
        .startFlow(b.seqReadBytes,
                   issueRate(cfg_.charon.unitFreqHz, 16), join);

    mem::StreamRequest read;
    read.bytes = b.seqReadBytes;
    read.pattern = mem::AccessPattern::Sequential;
    read.granularity = 256;
    read.maxRate = mai_rate;
    hmc_.streamToCube(origin, b.srcCube, read, arrive);

    mem::StreamRequest write = read;
    write.bytes = b.writeBytes;
    write.write = true;
    hmc_.streamToCube(origin, b.dstCube, write, arrive);
}

void
CharonDevice::execRefCount(const gc::Bucket &b, mem::StreamCallback done)
{
    // Count-word RMWs are scattered like Scan&Push probes and go
    // through the same units and translation path; a unit keeps many
    // independent decrements in flight because, unlike the host, it
    // holds the whole ZCT batch in its command queue.
    const bool local = cfg_.charon.scanPushLocal;
    const int unit_cube =
        cfg_.charon.cpuSide ? 0 : (local ? b.srcCube : 0);
    const auto origin = unitOrigin(unit_cube);
    const int cubes = cfg_.hmc.cubes;

    // Unlike Scan&Push, successive count updates carry no pointer
    // dependency, so concurrency is bounded by the MAI depth (and by
    // the batch itself for tiny buckets), not by updates/invocation.
    double mlp =
        std::min(static_cast<double>(b.randomAccesses),
                 static_cast<double>(cfg_.charon.maiEntries));
    double avg_lat = 0;
    for (int c = 0; c < cubes; ++c) {
        Tick l = cfg_.charon.cpuSide
                     ? hmc_.hostPort().latency(mem::AccessPattern::Random)
                     : hmc_.latency(hmc::Origin::onCube(unit_cube),
                                    static_cast<mem::Addr>(c)
                                        << hmc_.cubeShift(),
                                    mem::AccessPattern::Random);
        if (!cfg_.charon.distributedStructures && !cfg_.charon.cpuSide
            && unit_cube != 0) {
            l += 2 * cfg_.hmc.linkLatency(); // remote TLB lookup
        }
        avg_lat += static_cast<double>(l);
    }
    avg_lat /= cubes;
    double random_rate = std::max(mlp, 1.0) * 16.0 / avg_lat;

    sim::Join *join = joins_.acquire(
        2 + static_cast<std::size_t>(cubes), sim::JoinPool::wrap(std::move(done)));
    auto arrive = [join](Tick t) { join->arrive(t); };

    pool(PrimKind::RefCount, unit_cube)
        .startFlow(b.randomBytes + b.writeBytes,
                   issueRate(cfg_.charon.unitFreqHz, 16), join);

    // The count words spread over every cube; the updated values write
    // back to the same lines (write-through, 16 B granularity).
    for (int c = 0; c < cubes; ++c) {
        mem::StreamRequest rnd;
        rnd.bytes = b.randomBytes / static_cast<std::uint64_t>(cubes);
        rnd.pattern = mem::AccessPattern::Random;
        rnd.granularity = 16;
        rnd.maxRate = random_rate / cubes;
        hmc_.streamToCube(origin, c, rnd, arrive);
    }
    mem::StreamRequest wr;
    wr.bytes = b.writeBytes;
    wr.write = true;
    wr.pattern = mem::AccessPattern::Random;
    wr.granularity = 16;
    wr.maxRate = random_rate;
    hmc_.streamToCube(origin, b.srcCube, wr, arrive);
}

double
CharonDevice::unitBusySeconds() const
{
    // utilizedTicks integrates the pool's utilization; scaled by the
    // pool's unit count it yields unit-seconds of activity.
    const auto &ch = cfg_.charon;
    const int cubes = cfg_.hmc.cubes;
    double unit_seconds = 0;
    for (const auto &p : copySearchPools_) {
        unit_seconds += sim::ticksToSeconds(static_cast<Tick>(
                            p->utilizedTicks()))
                        * std::max(1, ch.copySearchUnits / cubes);
    }
    for (const auto &p : bitmapCountPools_) {
        unit_seconds += sim::ticksToSeconds(static_cast<Tick>(
                            p->utilizedTicks()))
                        * std::max(1, ch.bitmapCountUnits / cubes);
    }
    int sp_units = scanPushPools_.size() == 1
                       ? ch.scanPushUnits
                       : std::max(1, ch.scanPushUnits / cubes);
    for (const auto &p : scanPushPools_) {
        unit_seconds += sim::ticksToSeconds(static_cast<Tick>(
                            p->utilizedTicks()))
                        * sp_units;
    }
    return unit_seconds;
}

double
CharonDevice::unitEnergyJ(double gc_seconds) const
{
    const auto &ch = cfg_.charon;
    int total_units = ch.copySearchUnits + ch.bitmapCountUnits
                      + ch.scanPushUnits;
    double busy = unitBusySeconds();
    double unit_seconds = total_units * gc_seconds;
    return busy * ch.unitActivePowerW
           + std::max(0.0, unit_seconds - busy) * ch.unitIdlePowerW;
}

double
CharonDevice::areaMm2() const
{
    return AreaModel(cfg_.charon).totalMm2();
}

} // namespace charon::accel
