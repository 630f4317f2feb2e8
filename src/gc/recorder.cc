#include "recorder.hh"

#include "sim/logging.hh"

namespace charon::gc
{

TraceRecorder::TraceRecorder(int num_threads, int cube_shift,
                             int num_cubes)
    : numThreads_(num_threads),
      cubeShift_(cube_shift),
      numCubes_(num_cubes),
      bitmapCache_(kBitmapCache.bytes, kBitmapCache.assoc,
                   kBitmapCache.blockBytes)
{
    CHARON_ASSERT(num_threads > 0, "need at least one GC thread");
    CHARON_ASSERT(mem::isPow2(static_cast<std::uint64_t>(num_cubes)),
                  "cube count must be a power of two");
}

int
TraceRecorder::cubeOf(mem::Addr addr) const
{
    return static_cast<int>((addr >> cubeShift_)
                            & static_cast<mem::Addr>(numCubes_ - 1));
}

void
TraceRecorder::beginGc(bool major)
{
    CHARON_ASSERT(!gcOpen_, "nested beginGc");
    run_.mutatorInstructions.push_back(mutatorSinceGc_);
    mutatorSinceGc_ = 0;
    current_ = GcTrace{};
    current_.major = major;
    current_.capabilityMask = caps_.primMask;
    gcOpen_ = true;
}

void
TraceRecorder::beginPhase(PhaseKind kind)
{
    CHARON_ASSERT(gcOpen_ && !phaseOpen_, "beginPhase outside GC");
    openKind_ = kind;
    open_.clear();
    open_.resize(static_cast<std::size_t>(numThreads_));
    phaseOpen_ = true;
    cursor_ = 0;
    bitmapCache_.resetStats();
}

void
TraceRecorder::endPhase()
{
    CHARON_ASSERT(phaseOpen_, "endPhase without beginPhase");
    PhaseTrace p;
    p.kind = openKind_;
    // Safepoint / task-spawn / termination cost at each barrier.
    for (auto &t : open_)
        t.glueInstructions += costs_.phaseOverhead;
    p.bitmapCacheHitRate = bitmapCache_.hitRate();
    // Section 4.5: the bitmap cache is flushed after completing either
    // bitmap-using primitive phase, for coherence with the host.
    if (p.kind == PhaseKind::MajorMark
        || p.kind == PhaseKind::MajorCompact) {
        p.bitmapCacheWritebacks = bitmapCache_.flush();
    }
    // Seal the per-thread builders into the phase's columnar storage.
    for (const auto &t : open_)
        p.addThread(t);
    open_.clear();
    current_.phases.push_back(std::move(p));
    phaseOpen_ = false;
}

GcTrace &
TraceRecorder::endGc()
{
    CHARON_ASSERT(gcOpen_ && !phaseOpen_, "endGc with open phase");
    gcOpen_ = false;
    run_.gcs.push_back(std::move(current_));
    return run_.gcs.back();
}

void
TraceRecorder::recordMutator(std::uint64_t instructions)
{
    mutatorSinceGc_ += instructions;
}

void
TraceRecorder::finishRun()
{
    run_.mutatorInstructions.push_back(mutatorSinceGc_);
    mutatorSinceGc_ = 0;
}

ThreadWork &
TraceRecorder::work()
{
    CHARON_ASSERT(phaseOpen_, "primitive recorded outside a phase");
    return open_[static_cast<std::size_t>(cursor_)];
}

void
TraceRecorder::nextThread()
{
    if (++cursor_ == numThreads_)
        cursor_ = 0;
}

void
TraceRecorder::setThread(int thread)
{
    CHARON_ASSERT(thread >= 0 && thread < numThreads_,
                  "thread %d out of range", thread);
    cursor_ = thread;
}

void
TraceRecorder::setCopyOffloadThreshold(std::uint64_t bytes)
{
    copyThreshold_ = bytes;
}

void
TraceRecorder::armFailover(std::uint64_t after)
{
    failoverArmed_ = true;
    failoverTripped_ = false;
    failoverAfter_ = after;
}

bool
TraceRecorder::failoverActive()
{
    if (!failoverArmed_)
        return false;
    if (!failoverTripped_) {
        if (failoverAfter_ > 0) {
            --failoverAfter_;
            return false;
        }
        failoverTripped_ = true;
        // The accelerator just died: the work already queued in the
        // open phase is in flight on the device and must be
        // re-dispatched to the host paths.
        for (auto &t : open_)
            for (auto &b : t.buckets)
                b.hostOnly = true;
    }
    return true;
}

void
TraceRecorder::recordCopy(mem::Addr src, mem::Addr dst,
                          std::uint64_t bytes)
{
    // Sub-threshold copies are cheaper than the offload round trip;
    // the modified JVM keeps them on the host.
    bool host_only = failoverActive() || bytes < copyThreshold_
                     || !caps_.canOffload(PrimKind::Copy);
    Bucket &b = work().bucket(PrimKind::Copy, cubeOf(src), cubeOf(dst),
                              host_only);
    ++b.invocations;
    b.seqReadBytes += bytes;
    b.writeBytes += bytes;
    current_.bytesCopied += bytes;
}

void
TraceRecorder::recordSearch(mem::Addr table_start, std::uint64_t bytes)
{
    Bucket &b = work().bucket(PrimKind::Search, cubeOf(table_start),
                              cubeOf(table_start),
                              failoverActive()
                                  || !caps_.canOffload(PrimKind::Search));
    ++b.invocations;
    b.seqReadBytes += bytes;
    current_.cardsSearched += bytes;
}

void
TraceRecorder::recordScanPush(mem::Addr obj, std::uint64_t obj_bytes,
                              std::uint64_t refs, std::uint64_t pushed,
                              bool acceleratable)
{
    // The Scan&Push unit lives on the central cube (Section 4.4); the
    // bucket key keeps the object's home cube so the timing layer can
    // route the sequential read, while the random probes to referenced
    // objects are spread over cubes by the platform model.
    Bucket &b =
        work().bucket(PrimKind::ScanPush, cubeOf(obj), cubeOf(obj),
                      failoverActive() || !acceleratable
                          || !caps_.canOffload(PrimKind::ScanPush));
    ++b.invocations;
    b.seqReadBytes += obj_bytes;
    b.refsVisited += refs;
    b.randomAccesses += refs;
    b.randomBytes += refs * 16; // minimum HMC access granularity
    b.writeBytes += pushed * 8; // object-stack pushes
    b.stackPushes += pushed;
    current_.objectsScanned += 1;
    current_.refsVisited += refs;
}

void
TraceRecorder::recordBitmapCount(mem::Addr beg_storage_addr,
                                 mem::Addr end_storage_addr,
                                 std::uint64_t range_bits)
{
    Bucket &b =
        work().bucket(PrimKind::BitmapCount, cubeOf(beg_storage_addr),
                      cubeOf(beg_storage_addr),
                      failoverActive()
                          || !caps_.canOffload(PrimKind::BitmapCount));
    ++b.invocations;
    b.rangeBits += range_bits;
    std::uint64_t bytes_per_map = mem::divCeil(range_bits, 8);
    b.seqReadBytes += 2 * bytes_per_map; // begin + end maps
    current_.bitmapCountCalls += 1;
    // Feed the functional bitmap cache with the touched 32 B blocks.
    for (mem::Addr a = mem::alignDown(beg_storage_addr, 32);
         a < beg_storage_addr + bytes_per_map; a += 32) {
        bitmapCache_.access(a, false);
    }
    for (mem::Addr a = mem::alignDown(end_storage_addr, 32);
         a < end_storage_addr + bytes_per_map; a += 32) {
        bitmapCache_.access(a, false);
    }
}

void
TraceRecorder::recordMarkObj(mem::Addr bitmap_storage_addr)
{
    // An atomic 8 B read-modify-write on the bitmap, attributed to the
    // current Scan&Push bucket as one random access plus a write.
    // Sub-access of the current Scan&Push invocation: follows its
    // routing, so after a failover it lands in the hostOnly bucket.
    Bucket &b =
        work().bucket(PrimKind::ScanPush, cubeOf(bitmap_storage_addr),
                      cubeOf(bitmap_storage_addr),
                      failoverTripped_
                          || !caps_.canOffload(PrimKind::ScanPush));
    b.randomAccesses += 1;
    b.randomBytes += 16; // overfetch: 16 B minimum granularity
    b.bitmapRmwAccesses += 1;
    b.writeBytes += 8;
    bitmapCache_.access(bitmap_storage_addr, true);
}

void
TraceRecorder::recordBitSweep(mem::Addr beg_storage_addr,
                              std::uint64_t range_bits,
                              std::uint64_t free_runs)
{
    Bucket &b =
        work().bucket(PrimKind::BitSweep, cubeOf(beg_storage_addr),
                      cubeOf(beg_storage_addr),
                      failoverActive()
                          || !caps_.canOffload(PrimKind::BitSweep));
    ++b.invocations;
    b.rangeBits += range_bits;
    // Sequential walk of both maps plus one free-list node (16 B:
    // address + length) written per discovered run.
    b.seqReadBytes += 2 * mem::divCeil(range_bits, 8);
    b.writeBytes += free_runs * 16;
}

void
TraceRecorder::recordRefCount(mem::Addr obj, std::uint64_t updates)
{
    Bucket &b =
        work().bucket(PrimKind::RefCount, cubeOf(obj), cubeOf(obj),
                      failoverActive()
                          || !caps_.canOffload(PrimKind::RefCount));
    ++b.invocations;
    // Each update is an atomic 8 B RMW on a count word: a 16 B
    // granularity read plus the 8 B write-back.
    b.randomAccesses += updates;
    b.randomBytes += updates * 16;
    b.writeBytes += updates * 8;
}

void
TraceRecorder::recordBlockZero(mem::Addr dst, std::uint64_t bytes)
{
    bool host_only = failoverActive() || bytes < copyThreshold_
                     || !caps_.canOffload(PrimKind::Copy);
    Bucket &b = work().bucket(PrimKind::Copy, cubeOf(dst), cubeOf(dst),
                              host_only);
    ++b.invocations;
    b.writeBytes += bytes; // write-only: no source stream
}

void
TraceRecorder::recordGlue(std::uint64_t instructions,
                          std::uint64_t mem_accesses)
{
    ThreadWork &w = work();
    w.glueInstructions += instructions;
    w.glueMemAccesses += mem_accesses;
}

} // namespace charon::gc
