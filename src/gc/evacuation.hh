/**
 * @file
 * The evacuation drain the copying collectors share: ParallelScavenge's
 * young collection (gc::Scavenge) and G1's young and mixed collections
 * (gc::G1Collector).
 *
 * Both evacuate breadth-first from a FIFO of slots — root-set entries
 * and heap reference slots.  A popped slot whose target lies in the
 * evacuated set is rewritten to the target's forwardee, or, on the
 * first visit, to a fresh copy that is then scanned for more slots
 * (Copy, then Scan&Push).  Weak referents wait until the strong
 * closure is copied, then follow their referent's copy or are cleared.
 *
 * What differs is trace-visible, so the collector supplies it, bound
 * at compile time (the drain makes no virtual call):
 *
 *  - inSet(target): the non-null target lies in the evacuated set —
 *    young but not in To space (where copies land) for Scavenge, in
 *    a collection-set region for G1;
 *  - copy(obj): evacuate the object and install its forwarding
 *    pointer, or self-forward it in place when no space is left;
 *  - barrier(slot, target): the write barrier after a heap slot is
 *    rewritten — the card re-dirty, or the remembered-set insert;
 *  - scanSlot(obj, i, target, weak): the per-slot rule of a scan.
 *    Scavenge drops out-of-young targets before the weak test; G1
 *    tests weak first and keeps the remembered set of every
 *    out-of-set target.
 */

#ifndef CHARON_GC_EVACUATION_HH
#define CHARON_GC_EVACUATION_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "gc/recorder.hh"
#include "heap/klass.hh"

namespace charon::gc
{

/**
 * CRTP base: @p Collector derives from EvacuationDrain<Collector,
 * HeapT> and befriends it for the four hooks above.
 */
template <typename Collector, typename HeapT>
class EvacuationDrain
{
  protected:
    /** What a scan does with one non-null reference slot. */
    enum class SlotRule
    {
        Skip, ///< leave it
        Push, ///< queue the slot for evacuation
        Weak, ///< hold the object for weak-referent resolution
    };

    EvacuationDrain(HeapT &heap, TraceRecorder &recorder)
        : heap_(heap), rec_(recorder)
    {
    }

    /** Queue the heap reference slot at VA @p slot. */
    void pushSlot(mem::Addr slot) { pending_.push_back(SlotRef{false, slot}); }

    /** The roots phase: queue every root-set entry. */
    void
    scanRoots()
    {
        rec_.beginPhase(PhaseKind::MinorRoots);
        const auto &costs = rec_.costs();
        for (std::uint64_t i = 0; i < heap_.roots().size(); ++i) {
            rec_.recordGlue(costs.rootVisit, 1);
            pending_.push_back(SlotRef{true, i});
            rec_.nextThread();
        }
        rec_.endPhase();
    }

    /** One Scan&Push of @p obj under the collector's per-slot rule. */
    void
    scanObject(mem::Addr obj)
    {
        const auto &costs = rec_.costs();
        const heap::Klass &klass = heap_.klasses().get(heap_.klassOf(obj));
        const std::uint64_t n = heap_.refCount(obj);
        std::uint64_t pushed = 0;
        for (std::uint64_t i = 0; i < n; ++i) {
            mem::Addr target = heap_.refAt(obj, i);
            if (target == 0)
                continue;
            switch (self().scanSlot(obj, i, target,
                                    heap::isWeakSlot(klass.kind, i))) {
              case SlotRule::Skip:
                break;
              case SlotRule::Push:
                pushSlot(heap_.refSlotAddr(obj, i));
                ++pushed;
                break;
              case SlotRule::Weak:
                // The referent must not be kept alive by this slot
                // alone; it is resolved after the strong closure.
                weakRefs_.push_back(obj);
                break;
            }
        }
        rec_.recordGlue(costs.typeDispatch, 1);
        rec_.recordScanPush(obj, 16 + n * 8, n, pushed,
                            klass.acceleratable());
    }

    /**
     * The evacuation phase: drain the queue, then resolve the weak
     * referents (java.lang.ref semantics: a referent that survived
     * through a strong path follows its copy, any other is cleared).
     */
    void
    drain()
    {
        rec_.beginPhase(PhaseKind::MinorEvacuate);
        const auto &costs = rec_.costs();
        while (!pending_.empty()) {
            // A hint only: the referent of the slot one stride on.
            if (pending_.size() > kPrefetchAhead)
                heap_.arena().prefetch(readSlot(pending_[kPrefetchAhead]));
            SlotRef slot = pending_.front();
            pending_.pop_front();
            rec_.recordGlue(costs.popObject, 1);
            processSlot(slot);
            rec_.nextThread();
        }
        for (mem::Addr holder : weakRefs_) {
            rec_.recordGlue(costs.pointerAdjust, 2);
            mem::Addr target = heap_.refAt(holder, 0);
            if (target == 0 || !self().inSet(target))
                continue;
            if (heap_.isForwarded(target)) {
                writeSlot(SlotRef{false, heap_.refSlotAddr(holder, 0)},
                          heap_.forwardee(target));
            } else {
                heap_.setRefRaw(holder, 0, 0);
            }
        }
        weakRefs_.clear();
        rec_.endPhase();
    }

    HeapT &heap_;
    TraceRecorder &rec_;

    /**
     * How far ahead of the one it processes a work list asks for a
     * queued referent's header.  The drain's queue (and Scavenge's
     * promotion probe) is FIFO, so a hint given at push (HotSpot's
     * claim_or_forward_depth, whose stack is LIFO) would arrive a
     * whole queue length early.
     */
    static constexpr std::size_t kPrefetchAhead = 8;

  private:
    /** A location holding a reference that may need updating. */
    struct SlotRef
    {
        bool isRoot;
        std::uint64_t value; ///< root index, or slot VA
    };

    Collector &self() { return static_cast<Collector &>(*this); }

    mem::Addr
    readSlot(const SlotRef &slot) const
    {
        if (slot.isRoot)
            return heap_.roots()[slot.value];
        return heap_.load64(slot.value);
    }

    void
    writeSlot(const SlotRef &slot, mem::Addr target)
    {
        if (slot.isRoot) {
            heap_.roots()[slot.value] = target;
            return;
        }
        heap_.store64(slot.value, target);
        self().barrier(slot.value, target);
    }

    /**
     * Bring @p slot's target up to date: follow its forwarding
     * pointer, or copy it and scan the copy.  A self-forwarded
     * object is scanned in place, so its own slots still get
     * processed.
     */
    void
    processSlot(const SlotRef &slot)
    {
        mem::Addr target = readSlot(slot);
        if (target == 0 || !self().inSet(target))
            return;
        if (heap_.isForwarded(target)) {
            writeSlot(slot, heap_.forwardee(target));
            return;
        }
        mem::Addr dest = self().copy(target);
        writeSlot(slot, dest);
        scanObject(dest);
    }

    std::deque<SlotRef> pending_;
    /** Reference-kind holders whose weak slot waits for the closure. */
    std::vector<mem::Addr> weakRefs_;
};

} // namespace charon::gc

#endif // CHARON_GC_EVACUATION_HH
