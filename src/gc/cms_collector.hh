/**
 * @file
 * CMS-style collector family: copying young scavenges plus a
 * non-moving old-generation mark-sweep whose free list persists
 * between collections.
 *
 * The sweep is the offload story (Table 1's CMS row): discovering
 * dead runs is a linear scan of the mark bitmap, recorded as the
 * Bit Sweep primitive.  Because the family never compacts, it never
 * calls Bitmap Count — so its CapabilitySet omits that primitive,
 * and the mark-compact fallback below (HotSpot's "concurrent mode
 * failure") records its Bitmap Count work host-only.
 */

#ifndef CHARON_GC_CMS_COLLECTOR_HH
#define CHARON_GC_CMS_COLLECTOR_HH

#include <memory>

#include "gc/collector_iface.hh"
#include "gc/mark_sweep.hh"
#include "gc/recorder.hh"
#include "heap/heap.hh"

namespace charon::gc
{

/**
 * Scavenge minors + mark-sweep majors on one ManagedHeap.
 */
class CmsCollector : public CollectorIface
{
  public:
    CmsCollector(heap::ManagedHeap &heap, TraceRecorder &recorder);

    const char *name() const override { return "cms"; }

    /** Copy/Search/Scan&Push plus Bit Sweep — never Bitmap Count. */
    CapabilitySet capabilities() const override;

    mem::Addr allocate(heap::KlassId klass,
                       std::uint64_t array_len = 0) override;

    bool isHumongous(std::uint64_t size_words) const override;

    /** Humongous: first-fit from the sweep's free list, then bump. */
    mem::Addr allocateHumongous(heap::KlassId klass,
                                std::uint64_t array_len = 0) override;

    GcOutcome onAllocationFailure(bool humongous) override;

    std::uint64_t minorCount() const override { return minors_; }
    std::uint64_t majorCount() const override { return majors_; }

    /** Full collections the family had to fall back to. */
    std::uint64_t concurrentModeFailures() const { return failures_; }

  private:
    /** Old-generation mark-sweep; true when it freed anything. */
    bool oldCollect();

    /** Mark-compact fallback; true unless the live set overflows. */
    bool fullCollect();

    heap::ManagedHeap &heap_;
    TraceRecorder &rec_;

    /** Last sweep's free list, serving humongous allocation until
     *  the next major invalidates it. */
    std::unique_ptr<MarkSweep> sweeper_;

    std::uint64_t minors_ = 0;
    std::uint64_t majors_ = 0;
    std::uint64_t failures_ = 0;
};

} // namespace charon::gc

#endif // CHARON_GC_CMS_COLLECTOR_HH
