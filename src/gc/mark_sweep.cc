#include "mark_sweep.hh"

#include "gc/mark_work.hh"
#include "sim/logging.hh"

namespace charon::gc
{

using heap::Space;
using mem::Addr;

MarkSweep::MarkSweep(heap::ManagedHeap &heap, TraceRecorder &recorder,
                     bool trim_top)
    : heap_(heap), rec_(recorder), trimTop_(trim_top)
{
}

void
MarkSweep::markFromRoots()
{
    // CMS policies: a single mark bitmap, no explicit root push
    // charge, weak-slot test before the null test.
    MarkOptions opt;
    MarkStats stats = runMarkClosure(heap_, rec_, opt);
    result_.liveObjects = stats.liveObjects;
    result_.liveBytes = stats.liveBytes;
}

void
MarkSweep::writeFiller(heap::ManagedHeap &heap, Addr addr,
                       std::uint64_t bytes)
{
    const auto &klasses = heap.klasses();
    std::uint64_t words = bytes / 8;
    CHARON_ASSERT(words >= 2, "hole too small for a filler");
    if (words == 2) {
        heap.store64(addr, static_cast<std::uint64_t>(klasses.fillerId())
                               | (2ull << 32));
        heap.store64(addr + 8, 0);
        return;
    }
    // int[] filler: 3 header words + (words-3) payload words
    // == (words-3)*2 int elements.
    std::uint64_t len = (words - 3) * 2;
    heap.store64(addr, static_cast<std::uint64_t>(klasses.intArrayId())
                           | (words << 32));
    heap.store64(addr + 8, 0);
    heap.store64(addr + 16, len);
}

void
MarkSweep::sweep()
{
    rec_.beginPhase(PhaseKind::MajorSummary); // sweep bookkeeping slot
    const auto &costs = rec_.costs();
    const auto &mark = heap_.begBitmap();
    freeList_.clear();

    const Addr start = heap_.region(Space::Old).start;
    Addr p = start;
    const Addr top = heap_.region(Space::Old).top;
    Addr run_start = 0;
    auto close_run = [&](Addr run_end) {
        if (run_start == 0)
            return;
        std::uint64_t bytes = run_end - run_start;
        if (trimTop_ && run_end == top) {
            // The final free run borders the allocation frontier:
            // give it back to the bump allocator instead of chaining
            // a filler (CMS's "coalesce with the end of the space").
            heap_.setOldTop(run_start);
            result_.freedBytes += bytes;
            result_.trimmedBytes = bytes;
            run_start = 0;
            return;
        }
        writeFiller(heap_, run_start, bytes);
        freeList_.push_back({run_start, bytes});
        result_.freedBytes += bytes;
        ++result_.freeChunks;
        // Free-list node insert stays on the host.
        rec_.recordGlue(costs.pushObject, 1);
        run_start = 0;
    };

    while (p < top) {
        std::uint64_t bytes = heap_.sizeBytes(p);
        if (mark.test(p)) {
            close_run(p);
        } else if (run_start == 0) {
            run_start = p;
        }
        p += bytes;
    }
    close_run(top);
    // The walk itself is one Bit Sweep over the Old range: stream the
    // mark bitmap, emit a free-run extent per 0-run (Table 1's CMS
    // row — the sweep is the offloadable half of the collector).
    if (top > start) {
        rec_.recordBitSweep(
            mark.storageAddrOfBit(mark.bitIndex(start)),
            (top - start) / 8, result_.freeChunks);
    }
    rec_.endPhase();
}

MarkSweep::Result
MarkSweep::collect()
{
    rec_.beginGc(true);
    markFromRoots();
    sweep();
    rec_.endGc();
    return result_;
}

Addr
MarkSweep::allocateFromFreeList(heap::KlassId klass,
                                std::uint64_t array_len)
{
    std::uint64_t need_words = heap_.sizeWordsFor(klass, array_len);
    for (auto it = freeList_.begin(); it != freeList_.end(); ++it) {
        std::uint64_t chunk_words = it->bytes / 8;
        if (chunk_words < need_words)
            continue;
        std::uint64_t rem = chunk_words - need_words;
        if (rem == 1)
            continue; // cannot express a 1-word filler
        Addr obj = it->addr;
        if (rem == 0) {
            freeList_.erase(it);
        } else {
            it->addr += need_words * 8;
            it->bytes = rem * 8;
            writeFiller(heap_, it->addr, it->bytes);
        }
        heap_.arena().writeHeader(obj, klass, need_words, array_len);
        return obj;
    }
    return 0;
}

} // namespace charon::gc
