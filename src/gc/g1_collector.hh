/**
 * @file
 * A Garbage-First-style collector over the region-based G1Heap.
 *
 * Three operations, mirroring G1's phases:
 *
 *  - youngCollect(): evacuate every Eden + Survivor region.  The
 *    collection set's remembered sets replace ParallelScavenge's
 *    card-table Search; evacuation is the same Copy + Scan&Push the
 *    paper accelerates.
 *
 *  - concurrentMark() (stop-the-world here): trace the whole heap
 *    into the begin/end bitmaps, then account per-region liveness by
 *    scanning the bitmap region by region — the Bitmap Count usage
 *    the paper says G1 enjoys "with slight modifications"
 *    (Section 4.6: "it scans the bitmap to identify the state of the
 *    entire heap").  Dead humongous regions are reclaimed here.
 *
 *  - mixedCollect(): evacuate the young regions plus the old regions
 *    the mark found mostly dead (garbage-first region selection).
 *
 * Primitive invocations are recorded into the same TraceRecorder as
 * the other collectors, so G1 runs replay on every platform model.
 */

#ifndef CHARON_GC_G1_COLLECTOR_HH
#define CHARON_GC_G1_COLLECTOR_HH

#include <cstdint>
#include <deque>
#include <unordered_set>

#include "gc/collector_iface.hh"
#include "gc/recorder.hh"
#include "heap/g1_heap.hh"

namespace charon::gc
{

/**
 * The collector.
 */
class G1Collector : public CollectorIface
{
  public:
    struct EvacResult
    {
        std::uint64_t objectsEvacuated = 0;
        std::uint64_t bytesEvacuated = 0;
        int regionsCollected = 0;
        /** Regions kept in place because destinations ran out. */
        int regionsRetained = 0;
        /** Objects self-forwarded in place (evacuation failure). */
        std::uint64_t objectsFailed = 0;
        bool outOfRegions = false;
    };

    struct MarkResult
    {
        std::uint64_t liveObjects = 0;
        std::uint64_t liveBytes = 0;
        int humongousFreed = 0;
    };

    G1Collector(heap::G1Heap &heap, TraceRecorder &recorder);

    // ------------------------------------------------------------------
    // CollectorIface

    const char *name() const override { return "g1"; }

    /** Copy + Scan&Push in evacuation, Bitmap Count in the liveness
     *  pass; remembered sets replace the card-table Search. */
    CapabilitySet capabilities() const override;

    mem::Addr allocate(heap::KlassId klass,
                       std::uint64_t array_len = 0) override
    {
        return heap_.allocate(klass, array_len);
    }

    /** Half a region, real G1's humongous threshold. */
    bool isHumongous(std::uint64_t size_words) const override
    {
        return size_words * 8 > heap_.config().regionBytes / 2;
    }

    mem::Addr allocateHumongous(heap::KlassId klass,
                                std::uint64_t array_len = 0) override
    {
        return heap_.allocateHumongous(klass, array_len);
    }

    /**
     * Garbage-first policy, simplified: a young evacuation (Minor)
     * when there is comfortable headroom, else a marking cycle plus
     * a mixed collection (Major).  A failed humongous allocation
     * needs contiguous free regions; as in real G1 it always starts
     * a marking cycle, which reclaims dead humongous objects eagerly,
     * plus a mixed collection.
     */
    GcOutcome onAllocationFailure(bool humongous) override;

    /** Young evacuations. */
    std::uint64_t minorCount() const override { return youngs_; }
    /** Mixed collections. */
    std::uint64_t majorCount() const override { return mixeds_; }
    std::uint64_t markCount() const override { return marks_; }

    // ------------------------------------------------------------------
    // G1 phases

    /** Evacuate all Eden + Survivor regions. */
    EvacResult youngCollect();

    /** Whole-heap marking + per-region liveness (Bitmap Count). */
    MarkResult concurrentMark();

    /**
     * Young regions plus old regions whose marked liveness is below
     * @p live_threshold of capacity.
     * @pre concurrentMark() ran since the last mutation-heavy phase
     *      (the driver guarantees this)
     */
    EvacResult mixedCollect(double live_threshold = 0.65);

  private:
    struct SlotRef
    {
        bool isRoot;
        std::uint64_t value; ///< root index or slot VA
    };

    mem::Addr readSlot(const SlotRef &slot) const;
    void writeSlot(const SlotRef &slot, mem::Addr target);

    /** Evacuate every region in @p cset. */
    EvacResult evacuate(const std::unordered_set<int> &cset);

    void scanRemsets(const std::unordered_set<int> &cset);
    void processSlot(const SlotRef &slot,
                     const std::unordered_set<int> &cset);
    mem::Addr copyOut(mem::Addr obj,
                      const std::unordered_set<int> &cset);
    void scanNewCopy(mem::Addr new_obj,
                     const std::unordered_set<int> &cset);
    void releaseCset(const std::unordered_set<int> &cset);

    heap::G1Heap &heap_;
    TraceRecorder &rec_;
    std::deque<SlotRef> pending_;
    /** Reference-kind holders registered during evacuation/marking. */
    std::vector<mem::Addr> weakRefs_;
    /** Regions holding self-forwarded objects (kept, not freed). */
    std::unordered_set<int> failedRegions_;
    EvacResult current_;
    bool markValid_ = false;
    std::uint64_t youngs_ = 0;
    std::uint64_t mixeds_ = 0;
    std::uint64_t marks_ = 0;
};

} // namespace charon::gc

#endif // CHARON_GC_G1_COLLECTOR_HH
