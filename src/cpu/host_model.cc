#include "host_model.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace charon::cpu
{

using gc::PrimKind;
using sim::Tick;

HostModel::HostModel(sim::EventQueue &eq, const sim::HostConfig &cfg,
                     mem::MemPort &port, const gc::GlueCosts &costs,
                     const sim::Instrumentation &instr)
    : eq_(eq), cfg_(cfg), port_(port), costs_(costs), clock_(cfg.freqHz),
      timeline_(instr.timeline()), stallTrack_(instr.track("host.memstall"))
{
}

Tick
HostModel::glueTicks(std::uint64_t instructions) const
{
    double cycles = static_cast<double>(instructions) / cfg_.gcGlueIpc;
    return clock_.cyclesToTicks(cycles);
}

double
HostModel::seqRate() const
{
    // Streams are prefetcher-friendly: the core keeps ~mshrsPerCore
    // cache-line fills in flight against the (row-hit) latency.
    Tick lat = port_.latency(mem::AccessPattern::Sequential);
    return cfg_.mshrsPerCore * 64.0 / static_cast<double>(lat);
}

double
HostModel::randomRate() const
{
    // Dependent probes: the instruction window holds IW/instrPerProbe
    // loop iterations, each carrying one likely-missing load
    // (Section 3.3's "indirect memory access ... clog the instruction
    // window" argument), also bounded by the MSHRs.
    double window_mlp = cfg_.instructionWindow / kInstrPerProbe;
    double mlp = std::clamp(window_mlp, 1.0,
                            static_cast<double>(cfg_.mshrsPerCore));
    Tick lat = port_.latency(mem::AccessPattern::Random);
    return mlp * 64.0 / static_cast<double>(lat);
}

Tick
HostModel::invocationOverhead(PrimKind kind) const
{
    // Call setup, bounds checks, loop prologue per primitive call.
    std::uint64_t cycles = 0;
    switch (kind) {
      case PrimKind::Copy:        cycles = 25; break;
      case PrimKind::Search:      cycles = 15; break;
      case PrimKind::ScanPush:    cycles = 10; break;
      case PrimKind::BitmapCount: cycles = 20; break;
      case PrimKind::BitSweep:    cycles = 15; break;
      case PrimKind::RefCount:    cycles = 12; break;
    }
    return clock_.cyclesToTicks(static_cast<double>(cycles));
}

void
HostModel::execBucket(const gc::Bucket &bucket, mem::Addr synth_addr,
                      sim::Join *done)
{
    if (bucket.invocations == 0) {
        sim::arriveAt(eq_, done, eq_.now());
        return;
    }
    if (timeline_) {
        timeline_->counter(stallTrack_, eq_.now(),
                           static_cast<double>(++stalledThreads_));
    }
    // The bucket's root join delays completion by the per-invocation
    // overhead, then lifts the thread's memory stall.
    sim::Join *root = joins_.acquire(
        1,
        [this, done](Tick t) {
            if (timeline_) {
                timeline_->counter(stallTrack_, t,
                                   static_cast<double>(--stalledThreads_));
            }
            if (done)
                done->arrive(t);
        },
        sim::Delay(invocationOverhead(bucket.kind) * bucket.invocations));
    switch (bucket.kind) {
      case PrimKind::Copy:
      case PrimKind::Search:
        execCopySearch(bucket, synth_addr, root);
        break;
      case PrimKind::ScanPush:
        execScanPush(bucket, synth_addr, root);
        break;
      case PrimKind::BitmapCount: {
        // The Figure 8 loop is compute-bound on the host: the touched
        // bitmap range lives comfortably in the L2 (8 KB of bitmap
        // covers 4 MB of heap), so time is cycles-per-bit over the
        // walked range.
        double cycles = static_cast<double>(bucket.rangeBits)
                        * costs_.cpuCyclesPerBitmapBit;
        sim::arriveAt(eq_, root,
                      eq_.now() + clock_.cyclesToTicks(cycles));
        break;
      }
      case PrimKind::BitSweep:
        execBitSweep(bucket, synth_addr, root);
        break;
      case PrimKind::RefCount:
        execRefCount(bucket, synth_addr, root);
        break;
    }
}

void
HostModel::overlapLoop(const mem::StreamRequest &req, Tick loop_done,
                       sim::Join *done)
{
    port_.stream(req, joins_.acquire(1, [this, loop_done, done](Tick t) {
        sim::arriveAt(eq_, done, std::max(t, loop_done));
    }));
}

void
HostModel::execCopySearch(const gc::Bucket &b, mem::Addr addr,
                          sim::Join *done)
{
    // One sequential stream covering the reads and (for Copy) the
    // write-allocate + writeback traffic.
    mem::StreamRequest req;
    req.addr = addr;
    req.bytes = b.seqReadBytes + b.writeBytes;
    req.pattern = mem::AccessPattern::Sequential;
    req.granularity = 64;
    req.maxRate = seqRate();

    if (b.kind == gc::PrimKind::Search) {
        // The Figure 7 loop compares one block per iteration: the
        // core, not DRAM, usually bounds the scan.  Completion is the
        // later of the compute loop and the memory stream.
        double cycles = static_cast<double>(b.seqReadBytes)
                        * costs_.cpuCyclesPerCardByte;
        overlapLoop(req, eq_.now() + clock_.cyclesToTicks(cycles), done);
        return;
    }
    port_.stream(req, done);
}

void
HostModel::execScanPush(const gc::Bucket &b, mem::Addr addr,
                        sim::Join *done)
{
    // Two serial parts: the (strided) reads of the objects' reference
    // blocks, then the dependent random probes.  Stack pushes and
    // small metadata updates stay in the L1/L2 on the host and are
    // not charged to DRAM (unlike Charon's units, which write through
    // to memory) — but their instructions retire on the core, which
    // is work the offloaded unit takes over (Figure 11 line 11).
    const Tick push_ticks = glueTicks(b.stackPushes
                                      * costs_.pushObject);
    mem::StreamRequest seq;
    seq.addr = addr;
    seq.bytes = b.seqReadBytes;
    seq.pattern = mem::AccessPattern::Strided;
    seq.granularity = 64;
    seq.maxRate = seqRate();

    // Random probes fetch whole cache lines: 64 B of traffic per 16 B
    // of useful data.
    mem::StreamRequest rnd;
    rnd.addr = addr;
    rnd.bytes = (b.randomBytes / 16) * 64;
    rnd.pattern = mem::AccessPattern::Random;
    rnd.granularity = 64;
    rnd.maxRate = randomRate();

    // The probes issue when the reference blocks arrive; the push
    // instructions retire after the last probe.
    sim::Join *probes = joins_.acquire(1, [this, done, push_ticks](Tick t) {
        sim::arriveAt(eq_, done, t + push_ticks);
    });
    port_.stream(seq, joins_.acquire(1, [this, rnd, probes](Tick) {
        port_.stream(rnd, probes);
    }));
}

void
HostModel::execBitSweep(const gc::Bucket &b, mem::Addr addr,
                        sim::Join *done)
{
    // The sweep walks both bitmaps sequentially and emits a free-list
    // node per discovered run.  Like Search, the core's bit loop and
    // the memory stream overlap; completion is the later of the two.
    mem::StreamRequest req;
    req.addr = addr;
    req.bytes = b.seqReadBytes + b.writeBytes;
    req.pattern = mem::AccessPattern::Sequential;
    req.granularity = 64;
    req.maxRate = seqRate();

    double cycles =
        static_cast<double>(b.rangeBits) * costs_.cpuCyclesPerBitmapBit;
    overlapLoop(req, eq_.now() + clock_.cyclesToTicks(cycles), done);
}

void
HostModel::execRefCount(const gc::Bucket &b, mem::Addr addr,
                        sim::Join *done)
{
    // Count words are scattered across the heap: every RMW is a
    // dependent random miss (64 B line per 16 B of useful data) plus
    // the dirty-line writeback — exactly the pointer-chase pattern
    // that clogs the instruction window on the host.
    mem::StreamRequest rnd;
    rnd.addr = addr;
    rnd.bytes = (b.randomBytes / 16) * 64 + b.writeBytes;
    rnd.pattern = mem::AccessPattern::Random;
    rnd.granularity = 64;
    rnd.maxRate = randomRate();
    port_.stream(rnd, done);
}

} // namespace charon::cpu
