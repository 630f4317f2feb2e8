#include "collector.hh"

#include <algorithm>

#include "gc/cms_collector.hh"
#include "gc/g1_collector.hh"
#include "gc/rc_collector.hh"
#include "sim/logging.hh"

namespace charon::gc
{

using heap::Space;

const char *
gcOutcomeName(GcOutcome outcome)
{
    switch (outcome) {
      case GcOutcome::Minor:       return "minor";
      case GcOutcome::Major:       return "major";
      case GcOutcome::OutOfMemory: return "out-of-memory";
    }
    return "unknown";
}

const char *
collectorToken(CollectorModel model)
{
    switch (model) {
      case CollectorModel::ParallelScavenge: return "ps";
      case CollectorModel::G1:               return "g1";
      case CollectorModel::Cms:              return "cms";
      case CollectorModel::Rc:               return "rc";
    }
    return "?";
}

const char *
collectorTitle(CollectorModel model)
{
    switch (model) {
      case CollectorModel::ParallelScavenge: return "ParallelScavenge";
      case CollectorModel::G1:               return "G1";
      case CollectorModel::Cms:              return "CMS";
      case CollectorModel::Rc:               return "RC";
    }
    return "?";
}

std::unique_ptr<heap::ObjectHeap>
makeHeap(CollectorModel model, std::uint64_t heap_bytes,
         const heap::KlassTable &klasses)
{
    if (model != CollectorModel::G1) {
        heap::HeapConfig cfg;
        cfg.heapBytes = mem::alignUp(heap_bytes, 4096);
        return std::make_unique<heap::ManagedHeap>(cfg, klasses);
    }
    heap::G1Config cfg;
    cfg.heapBytes = mem::alignUp(heap_bytes, 1 * sim::kMiB);
    cfg.regionBytes = std::max<std::uint64_t>(
        256 * 1024, cfg.heapBytes / 64); // ~64 regions, G1's target
    // Whole regions; a region of heap/64 need not be a power of two.
    cfg.heapBytes =
        mem::divCeil(cfg.heapBytes, cfg.regionBytes) * cfg.regionBytes;
    // Young budget ~ a quarter of the heap, like ManagedHeap's Eden
    // share.
    cfg.maxEdenRegions = std::max<int>(
        2, static_cast<int>(cfg.heapBytes / cfg.regionBytes / 4));
    return std::make_unique<heap::G1Heap>(cfg, klasses);
}

std::unique_ptr<CollectorIface>
makeCollector(CollectorModel model, heap::ObjectHeap &heap,
              TraceRecorder &recorder)
{
    using heap::heapAs;
    using heap::ManagedHeap;
    std::unique_ptr<CollectorIface> c;
    switch (model) {
      case CollectorModel::ParallelScavenge:
        c = std::make_unique<Collector>(heapAs<ManagedHeap>(heap),
                                        recorder);
        break;
      case CollectorModel::G1:
        c = std::make_unique<G1Collector>(heapAs<heap::G1Heap>(heap),
                                          recorder);
        break;
      case CollectorModel::Cms:
        c = std::make_unique<CmsCollector>(heapAs<ManagedHeap>(heap),
                                           recorder);
        break;
      case CollectorModel::Rc:
        c = std::make_unique<RcCollector>(heapAs<ManagedHeap>(heap),
                                          recorder);
        break;
    }
    CHARON_ASSERT(c != nullptr, "unknown collector model");
    recorder.setCapabilities(c->capabilities());
    return c;
}

Collector::Collector(heap::ManagedHeap &heap, TraceRecorder &recorder)
    : heap_(heap), rec_(recorder)
{
}

CapabilitySet
Collector::capabilities() const
{
    CapabilitySet caps;
    caps.primMask = primBit(PrimKind::Copy) | primBit(PrimKind::Search)
                    | primBit(PrimKind::ScanPush)
                    | primBit(PrimKind::BitmapCount);
    caps.hasCardTable = true;
    caps.hasMarkBitmap = true;
    return caps;
}

mem::Addr
Collector::allocate(heap::KlassId klass, std::uint64_t array_len)
{
    return heap_.allocEden(klass, array_len);
}

bool
Collector::isHumongous(std::uint64_t size_words) const
{
    return size_words * 8 > heap_.region(Space::Eden).capacity();
}

mem::Addr
Collector::allocateHumongous(heap::KlassId klass,
                             std::uint64_t array_len)
{
    return heap_.allocOldObject(klass, array_len);
}

GcOutcome
Collector::onAllocationFailure(bool)
{
    // Probe with the threshold the scavenge will use (0 until the
    // first one: the config value).
    if (Scavenge(heap_, rec_, threshold_).promotionGuaranteeHolds()) {
        auto result = minorCollect();
        // A promotion failure already escalated to a full collection
        // inside minorCollect(); report what actually happened.
        return result.promotionFailed ? GcOutcome::Major
                                      : GcOutcome::Minor;
    }
    auto result = fullCollect();
    if (result.outOfMemory)
        return GcOutcome::OutOfMemory;
    return GcOutcome::Major;
}

MarkCompact::Result
Collector::fullCollect()
{
    MarkCompact mc(heap_, rec_);
    auto result = mc.collect();
    if (!result.outOfMemory)
        ++majors_;
    return result;
}

Scavenge::Result
Collector::minorCollect()
{
    if (threshold_ == 0)
        threshold_ = heap_.config().tenuringThreshold;
    Scavenge sc(heap_, rec_, threshold_);
    auto result = sc.collect();
    ++minors_;
    if (result.promotionFailed) {
        // Degradation state machine, Minor -> Major: the scavenge
        // left live objects behind in Eden/From (self-forwarded in
        // place).  A mark-compact collection is allocation-free, so
        // it always recovers the heap to a compact, verifiable state.
        fullCollect();
        return result;
    }
    if (adaptive_) {
        const auto &from = heap_.region(Space::From);
        if (result.bytesOverflowPromoted > from.capacity() / 10) {
            threshold_ = std::max(1, threshold_ - 1);
        } else if (from.used() < from.capacity() / 2
                   && threshold_ < kMaxTenuringThreshold) {
            ++threshold_;
        }
    }
    return result;
}

} // namespace charon::gc
