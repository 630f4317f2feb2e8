/**
 * @file
 * MinorGC: the ParallelScavenge copying collector over the young
 * generation (Figure 3(a) of the paper).
 *
 * Flow: push the root set, Search the card table for old-to-young
 * references, then drain the slot queue — for every reachable young
 * object, Copy it to the To survivor space (or promote it to Old when
 * aged), install a forwarding pointer, and Scan&Push its references.
 * The roots phase and the drain are the ones G1 evacuates with
 * (gc/evacuation.hh).
 *
 * The collector is functionally real (objects move, slots are
 * rewritten, cards re-dirtied) and records every primitive invocation
 * into the TraceRecorder.
 */

#ifndef CHARON_GC_SCAVENGE_HH
#define CHARON_GC_SCAVENGE_HH

#include <cstdint>
#include <vector>

#include "gc/evacuation.hh"
#include "gc/recorder.hh"
#include "heap/heap.hh"

namespace charon::gc
{

/**
 * One minor collection.
 */
class Scavenge : private EvacuationDrain<Scavenge, heap::ManagedHeap>
{
    friend EvacuationDrain;

  public:
    struct Result
    {
        std::uint64_t objectsCopied = 0;   ///< into the To space
        std::uint64_t objectsPromoted = 0; ///< into the Old generation
        std::uint64_t bytesCopied = 0;
        std::uint64_t bytesPromoted = 0;
        /** Of bytesPromoted: promoted only because To overflowed. */
        std::uint64_t bytesOverflowPromoted = 0;
        std::uint64_t dirtyCards = 0;
        /**
         * Promotion failure: one or more live objects could not be
         * evacuated (space exhausted, or an injected allocation
         * fault).  They were self-forwarded in place — the heap is
         * consistent, but Eden/From still hold live objects, so the
         * caller must immediately run a full collection (which
         * compacts the whole heap without allocating).
         */
        bool promotionFailed = false;
        std::uint64_t objectsFailed = 0; ///< left in place
    };

    /**
     * Exact pre-flight estimate of the space a scavenge needs:
     * bytes that will land in To and bytes that must go to Old
     * (aged objects plus survivor overflow).  Pure computation, no
     * side effects; used by the collection policy to decide whether a
     * full GC must run first (HotSpot's "promotion guarantee").
     */
    struct SpaceDemand
    {
        std::uint64_t survivorBytes = 0; ///< copies headed for To
        std::uint64_t promoteBytes = 0;  ///< aged promotions
        std::uint64_t largestObject = 0; ///< fragmentation slack
        std::uint64_t liveYoungBytes() const
        {
            return survivorBytes + promoteBytes;
        }
    };

    /**
     * @param tenuring_threshold overrides the heap config's value
     *        (<= 0 keeps it); the adaptive policy passes its current
     *        choice here
     */
    Scavenge(heap::ManagedHeap &heap, TraceRecorder &recorder,
             int tenuring_threshold = 0);

    /**
     * Compute the pre-flight space demand (no mutation), classifying
     * objects by this scavenge's tenuring threshold exactly as
     * collect() will.  Costs O(live young objects).
     */
    SpaceDemand estimateDemand() const;

    /**
     * HotSpot's promotion guarantee for this scavenge: Old can take
     * its promotions and survivor overflow, padded by one largest
     * object of fragmentation slack.  The collection policies run a
     * full collection first when it fails.
     */
    bool promotionGuaranteeHolds() const;

    /**
     * Run the collection.  When the promotion guarantee is violated
     * (space exhausted or an injected allocation fault), the scavenge
     * still completes with a consistent heap — failed objects are
     * self-forwarded in place — and Result::promotionFailed tells the
     * caller to escalate to a full collection.
     */
    Result collect();

  private:
    // EvacuationDrain hooks.

    /** Young and not yet in To: evacuated or forwarded on a visit. */
    bool inSet(mem::Addr target) const;
    /** Copy or promote @p obj; returns the new location. */
    mem::Addr copy(mem::Addr obj);
    /** Re-dirty the card of an old slot that now points young. */
    void barrier(mem::Addr slot, mem::Addr target);
    /** Out-of-young targets drop before the weak test. */
    SlotRule scanSlot(mem::Addr obj, std::uint64_t i, mem::Addr target,
                      bool weak);

    void scanCards();

    int threshold_;
    /** Objects self-forwarded by a promotion failure. */
    std::vector<mem::Addr> failed_;
    Result result_;
};

} // namespace charon::gc

#endif // CHARON_GC_SCAVENGE_HH
