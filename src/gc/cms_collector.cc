#include "cms_collector.hh"

#include "gc/mark_compact.hh"
#include "gc/scavenge.hh"
#include "sim/logging.hh"

namespace charon::gc
{

using heap::Space;
using mem::Addr;

CmsCollector::CmsCollector(heap::ManagedHeap &heap,
                           TraceRecorder &recorder)
    : heap_(heap), rec_(recorder)
{
}

CapabilitySet
CmsCollector::capabilities() const
{
    CapabilitySet caps;
    caps.primMask = primBit(PrimKind::Copy) | primBit(PrimKind::Search)
                    | primBit(PrimKind::ScanPush)
                    | primBit(PrimKind::BitSweep);
    caps.hasCardTable = true;
    caps.hasMarkBitmap = true;
    return caps;
}

Addr
CmsCollector::allocate(heap::KlassId klass, std::uint64_t array_len)
{
    return heap_.allocEden(klass, array_len);
}

bool
CmsCollector::isHumongous(std::uint64_t size_words) const
{
    return size_words * 8 > heap_.region(Space::Eden).capacity();
}

Addr
CmsCollector::allocateHumongous(heap::KlassId klass,
                                std::uint64_t array_len)
{
    if (sweeper_) {
        Addr obj = sweeper_->allocateFromFreeList(klass, array_len);
        if (obj != 0)
            return obj;
    }
    return heap_.allocOldObject(klass, array_len);
}

bool
CmsCollector::oldCollect()
{
    // Top trimming gives the final free run back to the bump
    // allocator so scavenge promotions (which bump-allocate) can
    // recover; interior holes stay on the free list for humongous
    // allocation.
    sweeper_ = std::make_unique<MarkSweep>(heap_, rec_, true);
    auto result = sweeper_->collect();
    ++majors_;
    return result.freedBytes > 0;
}

bool
CmsCollector::fullCollect()
{
    // Concurrent mode failure: the non-moving sweep could not make
    // room, so fall back to a full compaction.  Its Bitmap Count
    // work records host-only (outside this family's capabilities),
    // matching a CMS JVM running its serial full-GC fallback.
    sweeper_.reset(); // compaction invalidates the free list
    MarkCompact mc(heap_, rec_);
    auto result = mc.collect();
    ++majors_;
    ++failures_;
    return !result.outOfMemory;
}

GcOutcome
CmsCollector::onAllocationFailure(bool)
{
    // The family tenures at the config threshold, probe included.
    Scavenge sc(heap_, rec_);
    if (sc.promotionGuaranteeHolds()) {
        auto result = sc.collect();
        ++minors_;
        if (!result.promotionFailed)
            return GcOutcome::Minor;
        // The scavenge left self-forwarded objects behind; only the
        // compactor recovers that state.
        return fullCollect() ? GcOutcome::Major
                             : GcOutcome::OutOfMemory;
    }
    oldCollect();
    if (sc.promotionGuaranteeHolds())
        return GcOutcome::Major;
    return fullCollect() ? GcOutcome::Major : GcOutcome::OutOfMemory;
}

} // namespace charon::gc
