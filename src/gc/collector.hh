/**
 * @file
 * The collection driver: ties the two collectors to HotSpot-like
 * triggering policy.
 *
 * A mutator allocates in Eden until allocation fails, then calls
 * onAllocationFailure().  The driver evaluates the promotion
 * guarantee (a pre-flight space estimate, standing in for HotSpot's
 * adaptive policy): if a scavenge could not be guaranteed to fit its
 * survivors and promotions, a full mark-compact collection runs
 * instead; otherwise a minor collection runs.
 */

#ifndef CHARON_GC_COLLECTOR_HH
#define CHARON_GC_COLLECTOR_HH

#include "gc/collector_iface.hh"
#include "gc/mark_compact.hh"
#include "gc/recorder.hh"
#include "gc/scavenge.hh"
#include "heap/heap.hh"

namespace charon::gc
{

/**
 * Policy + dispatch for one heap (the ParallelScavenge family).
 */
class Collector : public CollectorIface
{
  public:
    Collector(heap::ManagedHeap &heap, TraceRecorder &recorder);

    const char *name() const override { return "ps"; }

    /** PS phases exercise all four classic primitives and maintain
     *  both the card table and the begin/end mark bitmaps. */
    CapabilitySet capabilities() const override;

    mem::Addr allocate(heap::KlassId klass,
                       std::uint64_t array_len = 0) override;

    /** Objects that could never fit in Eden go straight to Old. */
    bool isHumongous(std::uint64_t size_words) const override;

    mem::Addr allocateHumongous(heap::KlassId klass,
                                std::uint64_t array_len = 0) override;

    /**
     * Collect in response to an Eden allocation failure.
     * The failed allocation should be retried afterwards (unless
     * OutOfMemory).
     */
    GcOutcome onAllocationFailure() override;

    /** Force a full collection (System.gc()-style). */
    MarkCompact::Result fullCollect();

    /**
     * Force a minor collection (testing / experiments).  On a
     * promotion failure the driver immediately escalates to a full
     * collection before returning, so the heap is always left in a
     * reclaimed state.
     */
    Scavenge::Result minorCollect();

    std::uint64_t minorCount() const override { return minors_; }
    std::uint64_t majorCount() const override { return majors_; }

    /**
     * HotSpot-style adaptive tenuring (-XX:+UseAdaptiveSizePolicy,
     * simplified): after each scavenge, lower the threshold when the
     * To space overflowed (promote sooner) and raise it when the
     * survivors sit mostly empty (give objects more time to die).
     * Off by default so experiments use the paper's fixed setup.
     */
    void setAdaptiveTenuring(bool enabled) { adaptive_ = enabled; }
    int tenuringThreshold() const { return threshold_; }

  private:
    heap::ManagedHeap &heap_;
    TraceRecorder &rec_;
    bool adaptive_ = false;
    int threshold_ = 0; ///< 0 until first collection (config value)
    std::uint64_t minors_ = 0;
    std::uint64_t majors_ = 0;

    static constexpr int kMaxTenuringThreshold = 15;
};

} // namespace charon::gc

#endif // CHARON_GC_COLLECTOR_HH
