/**
 * @file
 * MajorGC: the mark-compact full collector (Figure 3(b)).
 *
 * Phase 1 (mark): trace the object graph from the roots, setting the
 * begin/end bits of every live object in the mark bitmaps
 * (Scan&Push + mark_obj).
 *
 * Phase 2 (summary): per heap region, the destination prefix, and per
 * 64-word block, the live words in its region before the first object
 * that starts in the block (HotSpot's block table), in one walk of
 * the begin bitmap (cheap; <0.03% of MajorGC per the paper).
 *
 * Phase 3 (compact): viewing the heap as one linear space, every live
 * object's destination is
 *     dest = heap_base + 8 x (live words to its left)
 * computed as HotSpot's calc_new_pointer does: region_destination +
 * block_offset + live_words_in_range(block_start, obj), a count over
 * one bitmap word.  The Bitmap Count primitive is recorded once per
 * moved object and once per adjusted pointer over [region_start,
 * obj), the range the accelerator counts, and is followed by the Copy
 * that moves the object.
 *
 * Every phase visits live objects in ascending address order, by
 * walking the begin bitmap; no side list of live objects is kept.
 * All live objects (old and young) compact to the bottom of the Old
 * generation; the young spaces end up empty, like a HotSpot full GC.
 */

#ifndef CHARON_GC_MARK_COMPACT_HH
#define CHARON_GC_MARK_COMPACT_HH

#include <cstdint>
#include <vector>

#include "gc/recorder.hh"
#include "heap/heap.hh"

namespace charon::gc
{

/**
 * One full collection.
 */
class MarkCompact
{
  public:
    struct Result
    {
        std::uint64_t liveObjects = 0;
        std::uint64_t liveBytes = 0;
        std::uint64_t bytesMoved = 0;
        std::uint64_t pointersAdjusted = 0;
        bool outOfMemory = false; ///< live set exceeds Old capacity
    };

    /** Compaction region size (HotSpot ParallelCompact granularity). */
    static constexpr std::uint64_t kRegionBytes = 2048;

    MarkCompact(heap::ManagedHeap &heap, TraceRecorder &recorder);

    /** Run the collection; on OOM the heap is left unmodified. */
    Result collect();

  private:
    /** Region granularity in bitmap bits (heap words). */
    static constexpr std::uint64_t kRegionWords = kRegionBytes / 8;
    /** Block granularity in heap words: one bitmap word. */
    static constexpr std::uint64_t kBlockWords = 64;
    static_assert(kRegionWords % kBlockWords == 0
                      && kRegionWords <= UINT16_MAX,
                  "a block offset is a uint16_t within one region");

    void markPhase();
    void summaryPhase();
    void compactPhase();

    /** Call @p fn on every marked object in ascending address order. */
    template <typename Fn> void forEachLive(Fn &&fn) const;

    /** Destination of live object @p obj, recording the BitmapCount. */
    mem::Addr newAddrOf(mem::Addr obj);

    heap::ManagedHeap &heap_;
    TraceRecorder &rec_;
    Result result_;

    /**
     * Summary output, one entry per compaction region: the live words
     * below the region start, its destination (HotSpot's RegionData).
     */
    std::vector<std::uint64_t> regionDest_;
    /**
     * One entry per block in which an object starts: the live words
     * in the block's region before that first object, which include
     * the region's partial-object words (HotSpot's BlockData).
     * Entries of blocks where no object starts are never read.
     */
    std::vector<std::uint16_t> blockOffset_;
};

} // namespace charon::gc

#endif // CHARON_GC_MARK_COMPACT_HH
