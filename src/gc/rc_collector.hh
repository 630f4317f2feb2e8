/**
 * @file
 * Reference-counting collector with zero-count-table reclamation and
 * binned free-queue recycling.
 *
 * Allocation is non-moving: everything lives in the Old generation,
 * served LIFO from per-size free queues (the FreeMemStore idiom —
 * a dying object's block is immediately reusable for the next
 * same-sized allocation) with bump allocation as the cold path.
 *
 * A collection is an RC "epoch": recompute the per-object reference
 * counts (deferred RC — the count RMWs are the RefCount primitive),
 * then drain the zero-count table transitively, recycling each dead
 * block (the block zero-fill records as Copy).  Reference counting
 * cannot reclaim cycles, so when an epoch recovers too little the
 * epoch ends with a backup mark pass over the same shared mark
 * closure the tracing collectors use, freeing whatever the counts
 * kept alive.
 *
 * The bookkeeping is flat, as in a HotSpot collector: the live set is
 * a bit-per-word object-start bitmap over the Old generation, walked
 * in address order, and each epoch's counts sit in the objects' own
 * mark words, stamped with the epoch so that no pass clears them.
 */

#ifndef CHARON_GC_RC_COLLECTOR_HH
#define CHARON_GC_RC_COLLECTOR_HH

#include <map>
#include <vector>

#include "gc/collector_iface.hh"
#include "gc/recorder.hh"
#include "heap/heap.hh"

namespace charon::gc
{

/**
 * RC/ZCT collector on one ManagedHeap.
 */
class RcCollector : public CollectorIface
{
  public:
    RcCollector(heap::ManagedHeap &heap, TraceRecorder &recorder);

    const char *name() const override { return "rc"; }

    /** RefCount for the count RMWs, Copy for the block recycling,
     *  Scan&Push for the backup cycle pass.  No card table. */
    CapabilitySet capabilities() const override;

    mem::Addr allocate(heap::KlassId klass,
                       std::uint64_t array_len = 0) override;

    /** Everything goes through the free-queue/bump path. */
    bool isHumongous(std::uint64_t) const override { return false; }

    mem::Addr allocateHumongous(heap::KlassId klass,
                                std::uint64_t array_len = 0) override;

    GcOutcome onAllocationFailure(bool humongous) override;

    /** RC epochs are whole-heap passes: all count as major. */
    std::uint64_t minorCount() const override { return 0; }
    std::uint64_t majorCount() const override { return epochs_; }

    std::uint64_t backupMarkPasses() const { return backupPasses_; }

    /** Blocks currently queued for reuse, over all size bins. */
    std::uint64_t freeQueueBlocks() const;

  private:
    /** Pop a block of >= @p need_words from the bins (splitting). */
    mem::Addr takeFromBins(std::uint64_t need_words);

    /** Recycle @p obj: filler + zero record + bin by size. */
    void freeObject(mem::Addr obj);

    /** True when @p addr starts a live collector-allocated object. */
    bool isLive(mem::Addr addr) const;

    /** Call @p fn on every live object, in address order. */
    template <typename Fn> void forEachLive(Fn fn);

    /** @p obj's reference count in the running epoch. */
    std::uint64_t count(mem::Addr obj) const;
    void setCount(mem::Addr obj, std::uint64_t n);

    /** Stamp of the running epoch's counts: never 0. */
    std::uint64_t stamp() const { return epochs_ + 1; }

    heap::ManagedHeap &heap_;
    TraceRecorder &rec_;

    /** Every live collector-allocated object: the bit of its first
     *  word, over the Old generation. */
    heap::MarkBitmap objects_;
    /**
     * Size-binned free queues: words -> LIFO block stack.  A drained
     * bin stays in the map, so the free/reuse churn allocates nothing.
     */
    std::map<std::uint64_t, std::vector<mem::Addr>> bins_;

    std::uint64_t epochs_ = 0;
    std::uint64_t backupPasses_ = 0;
    std::uint64_t freedBytes_ = 0; ///< current epoch's reclamation
};

} // namespace charon::gc

#endif // CHARON_GC_RC_COLLECTOR_HH
