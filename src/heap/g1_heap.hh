/**
 * @file
 * A region-based heap in the style of HotSpot's Garbage-First (G1)
 * collector, built on the shared ObjectArena object model.
 *
 * The heap is an array of fixed-size regions, each Free, Eden,
 * Survivor, Old, or Humongous.  Mutator allocation bump-allocates in
 * the current Eden region and claims free regions as needed; a
 * cross-region reference store records the referencing slot in the
 * target region's *remembered set*, which is what lets a collection
 * evacuate any subset of regions without scanning the whole heap.
 *
 * Exists to demonstrate Table 1 of the paper: the Charon primitives
 * are not ParallelScavenge-specific — G1's evacuation is Copy +
 * Scan&Push, and its region-liveness accounting after marking is
 * Bitmap Count ("it scans the bitmap to identify the state of the
 * entire heap", Section 4.6).
 */

#ifndef CHARON_HEAP_G1_HEAP_HH
#define CHARON_HEAP_G1_HEAP_HH

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "heap/bitmap.hh"
#include "heap/object_heap.hh"
#include "sim/types.hh"

namespace charon::heap
{

/** Role a region currently plays. */
enum class G1RegionKind : std::uint8_t
{
    Free,
    Eden,
    Survivor,
    Old,
    Humongous,
};

const char *g1RegionKindName(G1RegionKind kind);

/** G1 heap geometry and policy knobs. */
struct G1Config
{
    std::uint64_t heapBytes = 64 * sim::kMiB;
    std::uint64_t regionBytes = 1 * sim::kMiB;
    mem::Addr base = 0x10000;
    /** Survivals before an evacuated object tenures to Old regions. */
    int tenuringThreshold = 2;
    /** Eden regions allowed before allocation demands a young GC. */
    int maxEdenRegions = 8;
};

/**
 * One region's metadata.
 */
struct G1Region
{
    int index = 0;
    mem::Addr start = 0;
    mem::Addr end = 0;
    mem::Addr top = 0;
    G1RegionKind kind = G1RegionKind::Free;
    /**
     * Remembered set: VAs of reference slots *outside* this region
     * that point into it.  Entries may be stale (the slot was
     * overwritten); consumers re-check on use, as G1's refinement
     * does.
     */
    std::unordered_set<mem::Addr> remset;
    /** Live bytes found by the last marking cycle. */
    std::uint64_t liveBytes = 0;
    /** Humongous: number of continuation regions following this one. */
    int humongousSpan = 0;

    std::uint64_t capacity() const { return end - start; }
    std::uint64_t used() const { return top - start; }
    std::uint64_t free() const { return end - top; }
    bool contains(mem::Addr a) const { return a >= start && a < end; }
};

/**
 * The region-structured heap.
 */
class G1Heap final : public ObjectHeap
{
  public:
    G1Heap(const G1Config &cfg, const KlassTable &klasses);

    const G1Config &config() const { return cfg_; }

    // ------------------------------------------------------------------
    // Regions

    int numRegions() const { return static_cast<int>(regions_.size()); }
    G1Region &region(int index);
    const G1Region &region(int index) const;
    int regionIndexOf(mem::Addr addr) const;
    G1Region &regionOf(mem::Addr addr);
    const G1Region &regionOf(mem::Addr addr) const;

    int freeRegionCount() const;
    int regionCount(G1RegionKind kind) const;

    /** Claim a free region for @p kind; -1 when exhausted. */
    int claimRegion(G1RegionKind kind);

    /** Return a region (and any humongous continuations) to Free. */
    void releaseRegion(int index);

    /**
     * Forget the current allocation regions (called at the start of a
     * collection so evacuation never bump-allocates into a region
     * that is itself being collected).
     */
    void retireAllocationCursors();

    // ------------------------------------------------------------------
    // Allocation

    /**
     * Mutator allocation: bump in the current Eden region, claiming
     * new Eden regions up to the configured budget.
     * @return address, or 0 when a young collection is needed
     */
    mem::Addr allocate(KlassId klass, std::uint64_t array_len = 0);

    /**
     * GC-internal allocation into the current region of @p kind
     * (Survivor or Old), claiming regions as needed.
     * @return address, or 0 when the heap is out of regions
     */
    mem::Addr allocIn(G1RegionKind kind, std::uint64_t size_words);

    /** Humongous allocation: contiguous free regions. */
    mem::Addr allocateHumongous(KlassId klass, std::uint64_t array_len);

    // ------------------------------------------------------------------
    // Mutator reference store with the G1 cross-region barrier

    void storeRef(mem::Addr obj, std::uint64_t i,
                  mem::Addr target) override;

    /** Record @p slot in @p target's region's remembered set. */
    void recordRemset(mem::Addr slot, mem::Addr target);

    // ------------------------------------------------------------------
    // Iteration and marking support

    /** Visit every object in region @p index, in address order. */
    void forEachObjectInRegion(
        int index, const std::function<void(mem::Addr)> &fn) const;

    MarkBitmap &begBitmap() { return begMap_; }
    MarkBitmap &endBitmap() { return endMap_; }
    const MarkBitmap &begBitmap() const { return begMap_; }
    const MarkBitmap &endBitmap() const { return endMap_; }

    /** Walk every used region checking object-header sanity. */
    void verify() const;

  private:
    G1Config cfg_;
    std::vector<G1Region> regions_;
    MarkBitmap begMap_;
    MarkBitmap endMap_;

    /** Current allocation region per kind (-1 = none). */
    int currentEden_ = -1;
    int currentSurvivor_ = -1;
    int currentOld_ = -1;

    int &currentFor(G1RegionKind kind);
};

} // namespace charon::heap

#endif // CHARON_HEAP_G1_HEAP_HH
