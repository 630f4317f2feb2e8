/**
 * @file
 * The managed heap: a scaled-down but functionally faithful model of
 * HotSpot's generational heap under the ParallelScavenge collector.
 *
 * Layout (ascending virtual addresses):
 *
 *   [ Old generation | Eden | Survivor A | Survivor B ]
 *
 * followed (at distinct VAs, storage owned by the respective helper
 * objects) by the begin/end mark bitmaps and the card table, so the
 * timing layer can attribute metadata traffic to the right cubes.
 *
 * Objects are real: allocation writes headers into a backing arena,
 * reference fields hold real addresses, and the collectors genuinely
 * move objects and rewrite references.  All functional invariants
 * (reachability preservation, no dangling pointers) are checked by
 * tests against this ground truth.
 */

#ifndef CHARON_HEAP_HEAP_HH
#define CHARON_HEAP_HEAP_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "heap/bitmap.hh"
#include "heap/card_table.hh"
#include "heap/object_heap.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace charon::heap
{

/** The spaces of the generational heap. */
enum class Space { Old, Eden, From, To, None };

/** Printable space name. */
const char *spaceName(Space space);

/** Heap geometry. */
struct HeapConfig
{
    /** Total heap size (Old + Young). */
    std::uint64_t heapBytes = 256 * sim::kMiB;
    /** Young generation fraction (HotSpot default policy Young:Old=1:2). */
    double youngFraction = 1.0 / 3.0;
    /** Eden : Survivor sizing, HotSpot SurvivorRatio=8 -> 8:1:1. */
    int survivorRatio = 8;
    /** Base VA of the heap (nonzero so that 0 stays null). */
    mem::Addr base = 0x10000;
    /** Tenuring threshold: survivals before promotion to Old. */
    int tenuringThreshold = 2;
};

/**
 * One contiguous allocation region with a bump pointer.
 */
struct Region
{
    mem::Addr start = 0;
    mem::Addr end = 0;
    mem::Addr top = 0;

    std::uint64_t capacity() const { return end - start; }
    std::uint64_t used() const { return top - start; }
    std::uint64_t free() const { return end - top; }
    bool contains(mem::Addr a) const { return a >= start && a < end; }
    void reset() { top = start; }
};

/**
 * The managed heap.
 */
class ManagedHeap final : public ObjectHeap
{
  public:
    ManagedHeap(const HeapConfig &cfg, const KlassTable &klasses);

    const HeapConfig &config() const { return cfg_; }

    // ------------------------------------------------------------------
    // Geometry

    Region &region(Space space);
    const Region &region(Space space) const;
    Space spaceOf(mem::Addr addr) const;
    bool inYoung(mem::Addr addr) const;
    bool inOld(mem::Addr addr) const { return old_.contains(addr); }

    // ------------------------------------------------------------------
    // Allocation

    /**
     * Allocate in Eden (mutator fast path).
     * @param klass class of the new object
     * @param array_len element count for array klasses (ignored for
     *        instance kinds)
     * @return object address, or 0 when Eden is exhausted (caller
     *         must trigger a GC)
     */
    mem::Addr allocEden(KlassId klass, std::uint64_t array_len = 0);

    /** Allocate in the To survivor space (minor-GC copy target). */
    mem::Addr allocTo(std::uint64_t size_words);

    /** Allocate in the Old generation (promotion / direct old alloc). */
    mem::Addr allocOld(std::uint64_t size_words);

    /**
     * Allocate an object with a valid header directly in the Old
     * generation (humongous-allocation path; also used by tests).
     * @return address or 0 when Old is full
     */
    mem::Addr allocOldObject(KlassId klass, std::uint64_t array_len = 0);

    /**
     * Fault injection: after @p after further successful GC-internal
     * allocations (allocTo / allocOld), fail the next @p count calls
     * with 0 even though space remains — the deterministic trigger
     * for the collectors' promotion-failure recovery path.  The
     * mutator-facing paths (allocEden, allocOldObject) are unaffected.
     */
    void setGcAllocFault(std::uint64_t after, std::uint64_t count);

    /**
     * Mutator reference store: writes slot @p i of @p obj and dirties
     * the holder's card when @p obj is in the Old generation.
     */
    void storeRef(mem::Addr obj, std::uint64_t i,
                  mem::Addr target) override;

    // ------------------------------------------------------------------
    // Iteration

    /** Visit every object currently allocated in @p space, in order. */
    void forEachObject(Space space,
                       const std::function<void(mem::Addr)> &fn) const;

    /** Visit the VA of every reference slot of @p obj. */
    void forEachRefSlot(mem::Addr obj,
                        const std::function<void(mem::Addr)> &fn) const;

    /**
     * First object whose extent overlaps old-generation card
     * @p card_index, or 0 when the card is past the allocated top.
     * Uses the block-offset table maintained at old allocation.
     */
    mem::Addr firstObjectOnCard(std::uint64_t card_index) const;

    /** Rebuild the block-offset table (after compaction). */
    void rebuildBlockOffsets();

    // ------------------------------------------------------------------
    // GC support structures

    CardTable &cardTable() { return cards_; }
    const CardTable &cardTable() const { return cards_; }
    MarkBitmap &begBitmap() { return begMap_; }
    MarkBitmap &endBitmap() { return endMap_; }
    const MarkBitmap &begBitmap() const { return begMap_; }
    const MarkBitmap &endBitmap() const { return endMap_; }

    /**
     * Bit-per-word scratch map over the young generation for a pass
     * that records no trace (Scavenge's promotion probe), so it has no
     * storage VA.  All clear between uses: a user clears every bit it
     * set before returning.  Built on first use.
     */
    MarkBitmap &youngScratchMap();

    /** Reset a space's bump pointer (post-GC reclamation). */
    void resetSpace(Space space);

    /** Swap the From and To survivor spaces. */
    void swapSurvivors();

    /** Set Old's bump pointer (after compaction). */
    void setOldTop(mem::Addr top);

    // ------------------------------------------------------------------
    // Verification & stats

    /** Walk a space checking header sanity; panics on corruption. */
    void verifySpace(Space space) const;

    /** Count live (allocated) objects in a space. */
    std::uint64_t objectCount(Space space) const;

    sim::StatGroup &stats() { return stats_; }
    double bytesAllocated() const { return bytesAllocated_.value(); }

  private:
    mem::Addr allocIn(Region &region, std::uint64_t size_words);
    mem::Addr allocOldRaw(std::uint64_t size_words);
    void noteOldAllocation(mem::Addr obj);
    bool gcAllocFaultFires();

    HeapConfig cfg_;

    Region old_, eden_, from_, to_;

    CardTable cards_;
    MarkBitmap begMap_;
    MarkBitmap endMap_;
    std::optional<MarkBitmap> youngScratch_;

    /** Block-offset table: first object starting in each old card. */
    std::vector<mem::Addr> firstObjInCard_;

    bool gcFaultArmed_ = false;
    std::uint64_t gcFaultAfter_ = 0;
    std::uint64_t gcFaultRemaining_ = 0;

    sim::StatGroup stats_;
    sim::Counter bytesAllocated_;
    sim::Counter objectsAllocated_;
    sim::Counter allocFailures_;
};

} // namespace charon::heap

#endif // CHARON_HEAP_HEAP_HH
