#include "mark_compact.hh"

#include <algorithm>

#include "gc/mark_work.hh"
#include "sim/logging.hh"

namespace charon::gc
{

using heap::Space;
using mem::Addr;

MarkCompact::MarkCompact(heap::ManagedHeap &heap, TraceRecorder &recorder)
    : heap_(heap), rec_(recorder)
{
}

void
MarkCompact::markPhase()
{
    // ParallelOld policies: begin+end bits for the compactor, an
    // explicit push charge per marked root, null referents skipped
    // before the weak-slot test.
    MarkOptions opt;
    opt.dualBitmap = true;
    opt.rootPushGlue = true;
    opt.nullCheckFirst = true;
    MarkStats stats = runMarkClosure(heap_, rec_, opt);
    result_.liveObjects = stats.liveObjects;
    result_.liveBytes = stats.liveBytes;
}

template <typename Fn>
void
MarkCompact::forEachLive(Fn &&fn) const
{
    const auto &beg = heap_.begBitmap();
    const std::uint64_t limit = beg.numBits();
    for (std::uint64_t bit = beg.findNextSet(0, limit); bit < limit;
         bit = beg.findNextSet(bit + 1, limit)) {
        fn(beg.bitAddr(bit));
    }
}

void
MarkCompact::summaryPhase()
{
    rec_.beginPhase(PhaseKind::MajorSummary);
    const auto &costs = rec_.costs();

    // Per-region live-word totals (objects straddling region borders
    // split their words by location, as HotSpot's add_obj does; the
    // words past the first region are the later regions' partial
    // objects).  regionDest_ holds each region's running total until
    // the prefix pass below turns it into the destination.  A running
    // total starts at the region's partial-object words, so the block
    // offset taken from it at the first object of each block is
    // seeded from them, as HotSpot's fill_blocks seeds its count with
    // partial_obj_size.
    const auto &beg = heap_.begBitmap();
    regionDest_.assign(mem::divCeil(heap_.heapBytes(), kRegionBytes), 0);
    blockOffset_.assign(mem::divCeil(beg.numBits(), kBlockWords), 0);
    std::uint64_t last_block = ~0ull;
    forEachLive([&](Addr obj) {
        const std::uint64_t first = beg.bitIndex(obj);
        const std::uint64_t stop = first + heap_.sizeWords(obj);
        if (first / kBlockWords != last_block) {
            last_block = first / kBlockWords;
            const std::uint64_t before = regionDest_[first / kRegionWords];
            CHARON_ASSERT(before < kRegionWords,
                          "block offset %llu exceeds a region",
                          static_cast<unsigned long long>(before));
            blockOffset_[last_block] = static_cast<std::uint16_t>(before);
        }
        for (std::uint64_t bit = first; bit < stop;) {
            const std::uint64_t r = bit / kRegionWords;
            const std::uint64_t take =
                std::min(stop, (r + 1) * kRegionWords);
            regionDest_[r] += take - bit;
            bit = take;
        }
    });
    std::uint64_t prefix = 0;
    for (std::uint64_t &dest : regionDest_) {
        std::uint64_t words = dest;
        dest = prefix;
        prefix += words;
        rec_.recordGlue(costs.regionSummary, 1);
        rec_.nextThread();
    }
    CHARON_ASSERT(prefix * 8 == result_.liveBytes,
                  "region summary holds %llu live words, marking %llu",
                  static_cast<unsigned long long>(prefix),
                  static_cast<unsigned long long>(result_.liveBytes / 8));
    result_.outOfMemory =
        prefix * 8 > heap_.region(Space::Old).capacity();
    rec_.endPhase();
}

Addr
MarkCompact::newAddrOf(Addr obj)
{
    // HotSpot's calc_new_pointer:
    //   region_destination + block_offset
    //     + live_words_in_range(block_start, obj),
    // a count within one bitmap word.  The BitmapCount record keeps
    // the accelerator's range, [region start bit, obj bit).
    const auto &beg = heap_.begBitmap();
    const auto &end = heap_.endBitmap();
    const std::uint64_t obj_bit = beg.bitIndex(obj);
    CHARON_ASSERT(beg.testBit(obj_bit),
                  "new address of a non-live object 0x%llx",
                  static_cast<unsigned long long>(obj));
    const std::uint64_t region_start_bit =
        obj_bit / kRegionWords * kRegionWords;
    rec_.recordBitmapCount(beg.storageAddrOfBit(region_start_bit),
                           end.storageAddrOfBit(region_start_bit),
                           obj_bit - region_start_bit);
    const std::uint64_t block = obj_bit / kBlockWords;
    return heap_.base()
           + 8
                 * (regionDest_[obj_bit / kRegionWords]
                    + blockOffset_[block]
                    + heap::optimizedLiveWords(beg, end,
                                               block * kBlockWords,
                                               obj_bit));
}

void
MarkCompact::compactPhase()
{
    rec_.beginPhase(PhaseKind::MajorCompact);
    const auto &costs = rec_.costs();

    // Adjust: rewrite every reference (and root) to its target's
    // destination.  One Bitmap Count per pointer.
    forEachLive([&](Addr obj) {
        rec_.recordGlue(costs.typeDispatch, 1);
        std::uint64_t n = heap_.refCount(obj);
        for (std::uint64_t s = 0; s < n; ++s) {
            Addr target = heap_.refAt(obj, s);
            if (target == 0)
                continue;
            Addr moved = newAddrOf(target);
            heap_.setRefRaw(obj, s, moved);
            rec_.recordGlue(costs.pointerAdjust, 2);
            ++result_.pointersAdjusted;
        }
        rec_.nextThread();
    });
    for (Addr &root : heap_.roots()) {
        if (root != 0) {
            root = newAddrOf(root);
            rec_.recordGlue(costs.pointerAdjust, 1);
            ++result_.pointersAdjusted;
        }
    }

    // Move: ascending order guarantees dest <= src, so in-place
    // sliding is safe: an object's header is intact when the walk
    // reaches it, and the walk itself reads only the bitmap.  One
    // Bitmap Count (own destination) per object, but Copy at
    // HotSpot's granularity: contiguous live runs move as single bulk
    // copies (region filling), split where the run crosses a cube
    // boundary so the Copy/Search units stay data-local.  Objects
    // already at their destination form the dense prefix and are not
    // copied at all.
    Addr run_src = 0, run_dst = 0;
    std::uint64_t run_len = 0;
    auto flush_run = [&] {
        if (run_len == 0)
            return;
        rec_.recordCopy(run_src, run_dst, run_len);
        rec_.nextThread();
        run_len = 0;
    };
    std::uint64_t words_before = 0; // running prefix of live words
    forEachLive([&](Addr obj) {
        Addr dst = newAddrOf(obj);
        CHARON_ASSERT(dst == heap_.base() + words_before * 8,
                      "destination mismatch");
        CHARON_ASSERT(dst <= obj, "compaction must move left");
        std::uint64_t bytes = heap_.sizeBytes(obj);
        words_before += bytes / 8;
        rec_.recordGlue(costs.allocate, 1);
        if (dst == obj) {
            flush_run(); // dense prefix: stays in place
            return;
        }
        heap_.copyObjectBytes(dst, obj, bytes);
        result_.bytesMoved += bytes;
        bool extends = run_len > 0 && obj == run_src + run_len
                       && dst == run_dst + run_len
                       && rec_.cubeOf(obj) == rec_.cubeOf(run_src)
                       && rec_.cubeOf(dst) == rec_.cubeOf(run_dst);
        if (!extends) {
            flush_run();
            run_src = obj;
            run_dst = dst;
        }
        run_len += bytes;
    });
    flush_run();
    rec_.endPhase();
}

MarkCompact::Result
MarkCompact::collect()
{
    rec_.beginGc(true);
    markPhase();
    summaryPhase();
    if (result_.outOfMemory) {
        // Leave the heap untouched; the caller surfaces the OOM.
        rec_.endGc();
        return result_;
    }
    compactPhase();

    GcTrace &trace = rec_.endGc();
    trace.liveObjects = result_.liveObjects;
    trace.bytesCopied = result_.bytesMoved;

    // The whole live set now sits at the bottom of Old; young spaces
    // are empty.
    Addr new_top = heap_.base() + result_.liveBytes;
    heap_.setOldTop(new_top);
    heap_.resetSpace(Space::Eden);
    heap_.resetSpace(Space::From);
    heap_.resetSpace(Space::To);
    heap_.rebuildBlockOffsets();
    // No old-to-young references can exist (young is empty).
    heap_.cardTable().cleanAll();
    return result_;
}

} // namespace charon::gc
