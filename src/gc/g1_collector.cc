#include "g1_collector.hh"

#include <algorithm>
#include <vector>

#include "sim/logging.hh"

namespace charon::gc
{

using heap::G1Region;
using heap::G1RegionKind;
using mem::Addr;

G1Collector::G1Collector(heap::G1Heap &heap, TraceRecorder &recorder)
    : heap_(heap), rec_(recorder)
{
}

Addr
G1Collector::readSlot(const SlotRef &slot) const
{
    if (slot.isRoot)
        return heap_.roots()[slot.value];
    return heap_.load64(slot.value);
}

void
G1Collector::writeSlot(const SlotRef &slot, Addr target)
{
    if (slot.isRoot) {
        heap_.roots()[slot.value] = target;
        return;
    }
    heap_.arena().store64(slot.value, target);
    heap_.recordRemset(slot.value, target);
}

void
G1Collector::scanRemsets(const std::unordered_set<int> &cset)
{
    // The analogue of ParallelScavenge's card scan: walk the
    // collection set's remembered sets and enqueue every slot that
    // still points in (entries can be stale; re-check like G1's
    // refinement).  The slot walk itself is host work.
    rec_.beginPhase(PhaseKind::MinorCardScan);
    const auto &costs = rec_.costs();
    for (int index : cset) {
        const G1Region &r = heap_.region(index);
        for (Addr slot : r.remset) {
            rec_.recordGlue(costs.cardObjectLookup, 1);
            if (cset.count(heap_.regionIndexOf(slot)))
                continue; // the holder is itself being evacuated
            Addr target = heap_.load64(slot);
            if (target != 0 && heap_.arena().contains(target)
                && cset.count(heap_.regionIndexOf(target))) {
                pending_.push_back(SlotRef{false, slot});
                rec_.recordGlue(costs.pushObject);
            }
            rec_.nextThread();
        }
    }
    rec_.endPhase();
}

Addr
G1Collector::copyOut(Addr obj, const std::unordered_set<int> &cset)
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
    CHARON_ASSERT(!cset.count(heap_.regionIndexOf(dest)),
                  "evacuated into the collection set");

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
G1Collector::scanNewCopy(Addr new_obj,
                         const std::unordered_set<int> &cset)
{
    const auto &costs = rec_.costs();
    std::uint64_t n = heap_.refCount(new_obj);
    std::uint64_t pushed = 0;
    auto kind = heap_.klasses().get(heap_.klassOf(new_obj)).kind;
    for (std::uint64_t i = 0; i < n; ++i) {
        Addr target = heap_.refAt(new_obj, i);
        if (target == 0)
            continue;
        Addr slot = heap_.refSlotAddr(new_obj, i);
        if (heap::isWeakSlot(kind, i)) {
            // The referent must not be kept alive by this slot alone;
            // resolved after the strong closure is evacuated.
            weakRefs_.push_back(new_obj);
            continue;
        }
        if (cset.count(heap_.regionIndexOf(target))) {
            pending_.push_back(SlotRef{false, slot});
            ++pushed;
        } else {
            // Out-of-set reference: maintain the remembered set for
            // the relocated holder.
            heap_.recordRemset(slot, target);
        }
    }
    rec_.recordGlue(costs.typeDispatch, 1);
    rec_.recordScanPush(new_obj, 16 + n * 8, n, pushed,
                        heap_.klasses()
                            .get(heap_.klassOf(new_obj))
                            .acceleratable());
}

void
G1Collector::processSlot(const SlotRef &slot,
                         const std::unordered_set<int> &cset)
{
    Addr target = readSlot(slot);
    if (target == 0 || !heap_.arena().contains(target))
        return;
    if (!cset.count(heap_.regionIndexOf(target)))
        return; // already updated, or never in the collection set
    auto &arena = heap_.arena();
    if (arena.isForwarded(target)) {
        writeSlot(slot, arena.forwardee(target));
        return;
    }
    Addr dest = copyOut(target, cset);
    writeSlot(slot, dest);
    // A self-forwarded (failed) object is scanned in place so its own
    // collection-set references still get processed.
    scanNewCopy(dest, cset);
}

void
G1Collector::releaseCset(const std::unordered_set<int> &cset)
{
    for (int index : cset) {
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
            if (cset.count(slot_region)
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
    current_ = EvacResult{};
    current_.regionsCollected = static_cast<int>(cset.size());
    failedRegions_.clear();
    // Destination regions must be fresh: a stale allocation cursor
    // could point into the collection set.
    heap_.retireAllocationCursors();

    rec_.beginGc(/*major=*/false);

    rec_.beginPhase(PhaseKind::MinorRoots);
    const auto &costs = rec_.costs();
    for (std::uint64_t i = 0; i < heap_.roots().size(); ++i) {
        rec_.recordGlue(costs.rootVisit, 1);
        pending_.push_back(SlotRef{true, i});
        rec_.nextThread();
    }
    rec_.endPhase();

    scanRemsets(cset);

    rec_.beginPhase(PhaseKind::MinorEvacuate);
    while (!pending_.empty()) {
        SlotRef slot = pending_.front();
        pending_.pop_front();
        rec_.recordGlue(costs.popObject, 1);
        processSlot(slot, cset);
        rec_.nextThread();
    }
    // Reference processing: weak referents follow the strong copy or
    // get cleared.
    auto &arena = heap_.arena();
    for (Addr holder : weakRefs_) {
        rec_.recordGlue(costs.pointerAdjust, 2);
        Addr target = heap_.refAt(holder, 0);
        if (target == 0 || !arena.contains(target)
            || !cset.count(heap_.regionIndexOf(target))) {
            continue;
        }
        Addr slot = heap_.refSlotAddr(holder, 0);
        if (arena.isForwarded(target)) {
            Addr moved = arena.forwardee(target);
            arena.store64(slot, moved);
            heap_.recordRemset(slot, moved);
        } else {
            arena.store64(slot, 0);
        }
    }
    weakRefs_.clear();
    rec_.endPhase();
    rec_.endGc();

    releaseCset(cset);
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
    MarkResult result;
    rec_.beginGc(/*major=*/true);
    const auto &costs = rec_.costs();
    auto &beg = heap_.begBitmap();
    auto &end = heap_.endBitmap();

    // --- Mark.
    rec_.beginPhase(PhaseKind::MajorMark);
    beg.clearAll();
    end.clearAll();
    rec_.recordGlue(beg.storageBytes() / 32, beg.storageBytes() / 32);

    auto &arena = heap_.arena();
    std::vector<Addr> stack;
    auto mark_and_push = [&](Addr obj) {
        if (obj == 0 || beg.test(obj))
            return false;
        std::uint64_t size_words = arena.sizeWords(obj);
        beg.set(obj);
        end.set(obj + (size_words - 1) * 8);
        rec_.recordMarkObj(beg.storageAddrOfBit(beg.bitIndex(obj)));
        rec_.recordMarkObj(end.storageAddrOfBit(
            end.bitIndex(obj + (size_words - 1) * 8)));
        stack.push_back(obj);
        return true;
    };
    for (Addr root : heap_.roots()) {
        rec_.recordGlue(costs.rootVisit, 1);
        mark_and_push(root);
        rec_.nextThread();
    }
    std::vector<Addr> weak_refs;
    while (!stack.empty()) {
        Addr obj = stack.back();
        stack.pop_back();
        rec_.recordGlue(costs.popObject + costs.typeDispatch, 2);
        std::uint64_t n = heap_.refCount(obj);
        std::uint64_t pushed = 0;
        auto kind = heap_.klasses().get(heap_.klassOf(obj)).kind;
        for (std::uint64_t i = 0; i < n; ++i) {
            if (heap::isWeakSlot(kind, i)) {
                weak_refs.push_back(obj);
                continue;
            }
            pushed += mark_and_push(heap_.refAt(obj, i)) ? 1 : 0;
        }
        rec_.recordScanPush(obj, 16 + n * 8, n, pushed,
                            heap_.klasses()
                                .get(heap_.klassOf(obj))
                                .acceleratable());
        ++result.liveObjects;
        result.liveBytes += heap_.sizeBytes(obj);
        rec_.nextThread();
    }
    // Clear weak referents the strong closure did not reach.
    for (Addr holder : weak_refs) {
        rec_.recordGlue(costs.pointerAdjust, 2);
        Addr target = heap_.refAt(holder, 0);
        if (target != 0 && !beg.test(target))
            heap_.setRefRaw(holder, 0, 0);
    }
    rec_.endPhase();

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
        // Functional liveness: marked object spans clipped to the
        // region (what live_words_in_range computes).
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
