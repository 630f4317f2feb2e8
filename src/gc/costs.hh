/**
 * @file
 * Host instruction-cost constants for the non-offloadable "glue" work
 * inside the collectors (pop/push bookkeeping, type dispatch, TLAB
 * allocation, card maintenance).
 *
 * The paper deliberately does NOT offload these (Section 3.3: pop,
 * allocate, check-mark are single atomic instructions or
 * latency-bound), so they run on the host on every platform and bound
 * Charon's end-to-end speedup (Amdahl).  Values are instruction
 * counts per event, calibrated so the host-side runtime breakdown of
 * Figure 4 lands in the reported ranges: Search+Scan&Push+Copy ~71-78%
 * of MinorGC time and Scan&Push+BitmapCount+Copy ~74-79% of MajorGC.
 */

#ifndef CHARON_GC_COSTS_HH
#define CHARON_GC_COSTS_HH

#include <cstdint>

namespace charon::gc
{

struct GlueCosts
{
    /** Pop an entry off the object stack + processed check. */
    std::uint64_t popObject = 18;
    /** Push an entry (bounds check, store, counters). */
    std::uint64_t pushObject = 10;
    /** Klass load + iteration-strategy dispatch per scanned object. */
    std::uint64_t typeDispatch = 24;
    /** Bump-pointer allocation in To/Old during evacuation. */
    std::uint64_t allocate = 16;
    /** Forwarding-pointer install / age bookkeeping per copied object. */
    std::uint64_t forwardInstall = 12;
    /** Per root-set entry (frame decode, oop check). */
    std::uint64_t rootVisit = 14;
    /** Locating objects overlapping a dirty card (BOT walk). */
    std::uint64_t cardObjectLookup = 20;
    /** Card cleaning / re-dirtying per touched card. */
    std::uint64_t cardMaintain = 8;
    /** Summary-phase work per heap region (dest table entry). */
    std::uint64_t regionSummary = 60;
    /** Per adjusted pointer: slot load/store around the BitmapCount. */
    std::uint64_t pointerAdjust = 10;
    /** Offload call overhead on the host (pack args, ring doorbell). */
    std::uint64_t offloadIssue = 6;

    /**
     * Fixed per-thread instructions at every phase boundary:
     * safepoint synchronization, GC-task spawn, work-stealing
     * termination.  Dominates "Other" for short (Spark-style) minor
     * collections, just as in HotSpot.
     */
    std::uint64_t phaseOverhead = 30000;

    /**
     * CPU cycles per card-table byte for the software Search loop of
     * Figure 7.  HotSpot compares a block (8-byte word) of cards per
     * iteration, ~1.6 cycles per word; together with the
     * per-invocation latency floor on small striped ranges this keeps
     * the paper's Charon speedup on Search at ~2.9x avg.
     */
    double cpuCyclesPerCardByte = 0.2;

    /**
     * CPU cycles per bitmap bit for the software bit-loop of Figure 8
     * (load, test, branch per bit, partially hidden by superscalar
     * issue).  Charon replaces this loop with the word-wise popcount
     * algorithm of Section 4.3.
     */
    double cpuCyclesPerBitmapBit = 2.6;
};

} // namespace charon::gc

#endif // CHARON_GC_COSTS_HH
