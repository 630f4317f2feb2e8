#include "g1_collector.hh"

#include <algorithm>
#include <vector>

#include "gc/mark_work.hh"
#include "sim/logging.hh"

namespace charon::gc
{

using heap::G1Region;
using heap::G1RegionKind;
using mem::Addr;

G1Collector::G1Collector(heap::G1Heap &heap, TraceRecorder &recorder)
    : EvacuationDrain(heap, recorder)
{
}

bool
G1Collector::inSet(Addr target) const
{
    return heap_.arena().contains(target)
           && cset_->count(heap_.regionIndexOf(target));
}

G1Collector::SlotRule
G1Collector::scanSlot(Addr obj, std::uint64_t i, Addr target, bool weak)
{
    if (weak)
        return SlotRule::Weak;
    if (inSet(target))
        return SlotRule::Push;
    // Out-of-set reference: maintain the remembered set for the
    // relocated holder.
    heap_.recordRemset(heap_.refSlotAddr(obj, i), target);
    return SlotRule::Skip;
}

void
G1Collector::scanRemsets()
{
    // The analogue of ParallelScavenge's card scan: walk the
    // collection set's remembered sets and enqueue every slot that
    // still points in (entries can be stale; re-check like G1's
    // refinement).  The slot walk itself is host work.
    rec_.beginPhase(PhaseKind::MinorCardScan);
    const auto &costs = rec_.costs();
    for (int index : *cset_) {
        const G1Region &r = heap_.region(index);
        for (Addr slot : r.remset) {
            rec_.recordGlue(costs.cardObjectLookup, 1);
            if (cset_->count(heap_.regionIndexOf(slot)))
                continue; // the holder is itself being evacuated
            Addr target = heap_.load64(slot);
            if (target != 0 && inSet(target)) {
                pushSlot(slot);
                rec_.recordGlue(costs.pushObject);
            }
            rec_.nextThread();
        }
    }
    rec_.endPhase();
}

Addr
G1Collector::copy(Addr obj)
{
    const auto &costs = rec_.costs();
    auto &arena = heap_.arena();
    const std::uint64_t size_words = arena.sizeWords(obj);
    const int age = arena.age(obj);
    const bool from_old =
        heap_.regionOf(obj).kind == G1RegionKind::Old;
    const bool tenure =
        from_old || age + 1 >= heap_.config().tenuringThreshold;

    Addr dest = heap_.allocIn(tenure ? G1RegionKind::Old
                                     : G1RegionKind::Survivor,
                              size_words);
    if (dest == 0) {
        // Fall back to the other kind before giving up.
        dest = heap_.allocIn(tenure ? G1RegionKind::Survivor
                                    : G1RegionKind::Old,
                             size_words);
    }
    if (dest == 0) {
        // Evacuation failure: self-forward in place, exactly as G1
        // does.  The object's region is retained (promoted to Old
        // wholesale) instead of being freed, and the heap stays
        // consistent.
        current_.outOfRegions = true;
        ++current_.objectsFailed;
        arena.setForwarding(obj, obj);
        failedRegions_.insert(heap_.regionIndexOf(obj));
        return obj;
    }
    CHARON_ASSERT(!inSet(dest), "evacuated into the collection set");

    rec_.recordGlue(costs.allocate + costs.forwardInstall, 2);
    arena.copyBytes(dest, obj, size_words * 8);
    rec_.recordCopy(obj, dest, size_words * 8);
    arena.setAge(dest, std::min(age + 1, 63));
    arena.setForwarding(obj, dest);
    ++current_.objectsEvacuated;
    current_.bytesEvacuated += size_words * 8;
    return dest;
}

void
G1Collector::releaseCset()
{
    for (int index : *cset_) {
        if (failedRegions_.count(index)) {
            // Evacuation failure: the region keeps its surviving
            // (self-forwarded) objects and is retired to Old; stale
            // forwarding marks are scrubbed so a later collection
            // sees clean mark words.
            heap_.forEachObjectInRegion(index, [this](Addr obj) {
                if (heap_.arena().isForwarded(obj))
                    heap_.arena().clearForwarding(obj);
            });
            heap_.region(index).kind = heap::G1RegionKind::Old;
            ++current_.regionsRetained;
            continue;
        }
        heap_.releaseRegion(index);
    }
    // Remembered-set entries whose slot lived in a *released* region
    // died with it (slots in retained regions are still live).
    for (int i = 0; i < heap_.numRegions(); ++i) {
        auto &remset = heap_.region(i).remset;
        for (auto it = remset.begin(); it != remset.end();) {
            int slot_region = heap_.regionIndexOf(*it);
            if (cset_->count(slot_region)
                && !failedRegions_.count(slot_region)) {
                it = remset.erase(it);
            } else {
                ++it;
            }
        }
    }
}

G1Collector::EvacResult
G1Collector::evacuate(const std::unordered_set<int> &cset)
{
    cset_ = &cset;
    current_ = EvacResult{};
    current_.regionsCollected = static_cast<int>(cset.size());
    failedRegions_.clear();
    // Destination regions must be fresh: a stale allocation cursor
    // could point into the collection set.
    heap_.retireAllocationCursors();

    rec_.beginGc(/*major=*/false);
    scanRoots();
    scanRemsets();
    drain();
    rec_.endGc();

    releaseCset();
    cset_ = nullptr;
    return current_;
}

G1Collector::EvacResult
G1Collector::youngCollect()
{
    std::unordered_set<int> cset;
    for (int i = 0; i < heap_.numRegions(); ++i) {
        auto kind = heap_.region(i).kind;
        if (kind == G1RegionKind::Eden
            || kind == G1RegionKind::Survivor) {
            cset.insert(i);
        }
    }
    auto result = evacuate(cset);
    if (!result.outOfRegions) {
        ++youngs_;
        markValid_ = false; // liveness data is stale after moving
    }
    return result;
}

G1Collector::MarkResult
G1Collector::concurrentMark()
{
    rec_.beginGc(/*major=*/true);
    // G1 policies: begin+end bits for the liveness count, no explicit
    // root push charge, weak-slot test before the null test.
    MarkOptions opt;
    opt.dualBitmap = true;
    MarkStats stats = runMarkClosure(heap_, rec_, opt);
    MarkResult result;
    result.liveObjects = stats.liveObjects;
    result.liveBytes = stats.liveBytes;
    const auto &costs = rec_.costs();
    const auto &beg = heap_.begBitmap();
    const auto &end = heap_.endBitmap();

    // --- Per-region liveness: the G1 Bitmap Count usage.  One call
    // per used region over its whole bit range.
    rec_.beginPhase(PhaseKind::MajorSummary);
    const std::uint64_t region_bits = heap_.config().regionBytes / 8;
    std::vector<int> dead_humongous;
    for (int i = 0; i < heap_.numRegions(); ++i) {
        G1Region &r = heap_.region(i);
        if (r.kind == G1RegionKind::Free)
            continue;
        std::uint64_t start_bit = beg.bitIndex(r.start);
        rec_.recordBitmapCount(beg.storageAddrOfBit(start_bit),
                               end.storageAddrOfBit(start_bit),
                               region_bits);
        rec_.recordGlue(costs.regionSummary, 1);
        // Functional liveness: the whole size of each marked object
        // whose header lies in the region.  Spans are not clipped at
        // the region end, so a humongous head region reads more than
        // its capacity and its continuations read nothing.
        std::uint64_t live = 0;
        std::uint64_t limit_bit = start_bit + region_bits;
        for (std::uint64_t bit = beg.findNextSet(start_bit, limit_bit);
             bit < limit_bit;
             bit = beg.findNextSet(bit + 1, limit_bit)) {
            live += heap_.sizeBytes(beg.bitAddr(bit));
        }
        r.liveBytes = live;
        if (r.kind == G1RegionKind::Humongous && r.humongousSpan >= 0
            && !beg.test(r.start)) {
            dead_humongous.push_back(i);
        }
        rec_.nextThread();
    }
    rec_.endPhase();
    rec_.endGc();

    // Reclaim dead humongous objects eagerly (as G1 does after
    // remark), and drop remembered-set entries whose slots lived in
    // the reclaimed regions.
    std::unordered_set<int> freed;
    for (int head : dead_humongous) {
        for (int i = head; i <= head + heap_.region(head).humongousSpan;
             ++i) {
            freed.insert(i);
        }
        heap_.releaseRegion(head);
        ++result.humongousFreed;
    }
    if (!freed.empty()) {
        for (int i = 0; i < heap_.numRegions(); ++i) {
            auto &remset = heap_.region(i).remset;
            for (auto it = remset.begin(); it != remset.end();) {
                if (freed.count(heap_.regionIndexOf(*it)))
                    it = remset.erase(it);
                else
                    ++it;
            }
        }
    }

    markValid_ = true;
    ++marks_;
    return result;
}

G1Collector::EvacResult
G1Collector::mixedCollect(double live_threshold)
{
    CHARON_ASSERT(markValid_,
                  "mixedCollect requires fresh marking data");
    std::unordered_set<int> cset;
    for (int i = 0; i < heap_.numRegions(); ++i) {
        const G1Region &r = heap_.region(i);
        if (r.kind == G1RegionKind::Eden
            || r.kind == G1RegionKind::Survivor) {
            cset.insert(i);
        } else if (r.kind == G1RegionKind::Old
                   && static_cast<double>(r.liveBytes)
                          < live_threshold
                                * static_cast<double>(r.capacity())) {
            cset.insert(i);
        }
    }
    auto result = evacuate(cset);
    if (!result.outOfRegions) {
        ++mixeds_;
        markValid_ = false;
    }
    return result;
}

CapabilitySet
G1Collector::capabilities() const
{
    CapabilitySet caps;
    caps.primMask = primBit(PrimKind::Copy)
                    | primBit(PrimKind::ScanPush)
                    | primBit(PrimKind::BitmapCount);
    // Remembered sets stand in for the card table (no Search scans);
    // marking maintains the begin/end bitmaps.
    caps.hasCardTable = false;
    caps.hasMarkBitmap = true;
    return caps;
}

GcOutcome
G1Collector::onAllocationFailure(bool humongous)
{
    if (!humongous) {
        int used_young = heap_.regionCount(G1RegionKind::Eden)
                         + heap_.regionCount(G1RegionKind::Survivor);
        if (heap_.freeRegionCount() >= used_young + 2) {
            if (!youngCollect().outOfRegions)
                return GcOutcome::Minor;
            // Evacuation failure retained regions in place; escalate
            // to a marking cycle + mixed collection before giving up.
        }
    }
    concurrentMark();
    return mixedCollect().outOfRegions ? GcOutcome::OutOfMemory
                                       : GcOutcome::Major;
}

} // namespace charon::gc
