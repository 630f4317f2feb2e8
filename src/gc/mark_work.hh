/**
 * @file
 * Shared stop-the-world marking worklist.
 *
 * Every tracing collector in the zoo — ParallelScavenge's full
 * compactor, G1's marking cycle, the CMS-style mark-sweep, and the RC
 * collector's backup cycle pass — runs the same depth-first closure
 * over the heap's mark bitmaps (heap::ObjectHeap): pop an object, test
 * its reference slots, mark-and-push the unmarked targets, record one
 * Scan&Push per scanned object.  The collectors differ only in small,
 * trace-visible policies (dual begin/end bitmaps vs a single mark
 * bit, whether a marked root charges an explicit push, the order of
 * the null and weak-slot tests), so those are MarkOptions rather than
 * four diverging copies of the loop.
 *
 * The policies are not cosmetic: the recorded traces must stay
 * byte-identical to the pre-refactor collectors, and e.g. the
 * null-vs-weak test order changes how many Reference objects the
 * weak-processing pass visits (ParallelOld skips null referents
 * early; CMS discovers the Reference object regardless).
 */

#ifndef CHARON_GC_MARK_WORK_HH
#define CHARON_GC_MARK_WORK_HH

#include <cstdint>
#include <vector>

#include "gc/recorder.hh"
#include "heap/object_heap.hh"

namespace charon::gc
{

/** Trace-visible policy knobs of the shared mark closure. */
struct MarkOptions
{
    /** Phase the closure runs under. */
    PhaseKind phase = PhaseKind::MajorMark;
    /**
     * Set begin AND end bits (two mark_obj RMWs per object, the
     * ParallelOld encoding compaction and G1's liveness count need);
     * else one CMS-style mark bit in the begin map.
     */
    bool dualBitmap = false;
    /**
     * Charge pushObject glue for each newly marked root
     * (ParallelOld's explicit root task push; CMS folds the push
     * into the closure and charges nothing extra).
     */
    bool rootPushGlue = false;
    /**
     * Skip null targets before the weak-slot test (ParallelOld
     * order). CMS and G1 test the slot kind first, so a Reference
     * with a null referent still reaches the weak-processing pass.
     */
    bool nullCheckFirst = false;
};

/** What the closure found. */
struct MarkStats
{
    std::uint64_t liveObjects = 0;
    std::uint64_t liveBytes = 0;
};

/**
 * Clear the mark bitmap(s), mark everything reachable from the
 * roots, and clear weak referents that no strong path reached.
 * Opens and closes its own recorder phase.
 */
inline MarkStats
runMarkClosure(heap::ObjectHeap &heap, TraceRecorder &rec,
               const MarkOptions &opt)
{
    using mem::Addr;
    rec.beginPhase(opt.phase);
    const auto &costs = rec.costs();
    auto &beg = heap.begBitmap();
    beg.clearAll();
    if (opt.dualBitmap)
        heap.endBitmap().clearAll();
    // Bulk bitmap clear: host-side memset, charged as glue.
    rec.recordGlue(beg.storageBytes() / 32, beg.storageBytes() / 32);

    MarkStats stats;
    std::vector<Addr> stack;
    // mark_obj performs atomic RMWs on the map(s) (through the
    // bitmap cache in Charon, Section 4.5).
    auto try_mark = [&](Addr obj) {
        if (beg.test(obj))
            return false;
        beg.set(obj);
        rec.recordMarkObj(beg.storageAddrOfBit(beg.bitIndex(obj)));
        if (opt.dualBitmap) {
            auto &end = heap.endBitmap();
            Addr last = obj + (heap.sizeWords(obj) - 1) * 8;
            end.set(last);
            rec.recordMarkObj(end.storageAddrOfBit(end.bitIndex(last)));
        }
        return true;
    };

    for (Addr root : heap.roots()) {
        rec.recordGlue(costs.rootVisit, 1);
        if (root != 0 && try_mark(root)) {
            stack.push_back(root);
            if (opt.rootPushGlue)
                rec.recordGlue(costs.pushObject);
        }
        rec.nextThread();
    }

    std::vector<Addr> weak_refs;
    while (!stack.empty()) {
        Addr obj = stack.back();
        stack.pop_back();
        rec.recordGlue(costs.popObject + costs.typeDispatch, 2);
        std::uint64_t n = heap.refCount(obj);
        // Ask for every referent's header and mark bit before the
        // tests below wait on them one at a time; a hint moves no
        // visit or record.
        for (std::uint64_t i = 0; i < n; ++i) {
            Addr target = heap.refAt(obj, i);
            heap.arena().prefetch(target);
            beg.prefetch(target);
        }
        std::uint64_t pushed = 0;
        auto kind = heap.klasses().get(heap.klassOf(obj)).kind;
        for (std::uint64_t i = 0; i < n; ++i) {
            Addr target = heap.refAt(obj, i);
            if (opt.nullCheckFirst && target == 0)
                continue;
            if (heap::isWeakSlot(kind, i)) {
                // Weak referents do not keep their target alive.
                weak_refs.push_back(obj);
                continue;
            }
            if (target != 0 && try_mark(target)) {
                stack.push_back(target);
                ++pushed;
            }
        }
        rec.recordScanPush(obj, 16 + n * 8, n, pushed,
                           heap.klasses().get(heap.klassOf(obj))
                               .acceleratable());
        ++stats.liveObjects;
        stats.liveBytes += heap.sizeBytes(obj);
        rec.nextThread();
    }
    // Reference processing: clear weak referents the marking did not
    // reach through a strong path.
    for (Addr holder : weak_refs) {
        rec.recordGlue(costs.pointerAdjust, 2);
        Addr target = heap.refAt(holder, 0);
        if (target != 0 && !beg.test(target))
            heap.setRefRaw(holder, 0, 0);
    }
    rec.endPhase();
    return stats;
}

} // namespace charon::gc

#endif // CHARON_GC_MARK_WORK_HH
