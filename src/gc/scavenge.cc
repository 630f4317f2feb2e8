#include "scavenge.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace charon::gc
{

using heap::Space;
using mem::Addr;

Scavenge::Scavenge(heap::ManagedHeap &heap, TraceRecorder &recorder,
                   int tenuring_threshold)
    : EvacuationDrain(heap, recorder),
      threshold_(tenuring_threshold > 0
                     ? tenuring_threshold
                     : heap.config().tenuringThreshold)
{
}

Scavenge::SpaceDemand
Scavenge::estimateDemand() const
{
    // Pure reachability pass over the young generation: from the roots
    // and from old objects on dirty cards, classify every live young
    // object as survivor (age+1 < threshold) or promotion.  Used by
    // the policy as HotSpot uses its promotion-guarantee estimate; the
    // totals are exact because survivor overflow conserves bytes.
    // Visited objects are marked in the heap's young scratch map; the
    // visit list is also the work list, and clearing the map through
    // it keeps a probe O(live young objects).
    SpaceDemand demand;
    heap::MarkBitmap &visited = heap_.youngScratchMap();
    std::vector<Addr> found;

    auto consider = [&](Addr target) {
        if (target == 0 || !heap_.inYoung(target) || visited.test(target))
            return;
        visited.set(target);
        found.push_back(target);
    };

    for (Addr root : heap_.roots())
        consider(root);

    const auto &cards = heap_.cardTable();
    std::uint64_t limit = cards.numCards();
    for (std::uint64_t c = cards.findDirty(0, limit); c < limit;
         c = cards.findDirty(c + 1, limit)) {
        Addr obj = heap_.firstObjectOnCard(c);
        Addr card_end = cards.cardStart(c) + heap::CardTable::kCardBytes;
        while (obj != 0 && obj < card_end
               && obj < heap_.region(Space::Old).top) {
            std::uint64_t n = heap_.refCount(obj);
            for (std::uint64_t i = 0; i < n; ++i)
                consider(heap_.refAt(obj, i));
            obj += heap_.sizeBytes(obj);
        }
    }

    // found grows while it is walked: index, never iterate.
    for (std::size_t next = 0; next < found.size(); ++next) {
        if (next + kPrefetchAhead < found.size())
            heap_.arena().prefetch(found[next + kPrefetchAhead]);
        Addr obj = found[next];
        std::uint64_t bytes = heap_.sizeBytes(obj);
        demand.largestObject = std::max(demand.largestObject, bytes);
        if (heap_.age(obj) + 1 >= threshold_)
            demand.promoteBytes += bytes;
        else
            demand.survivorBytes += bytes;
        std::uint64_t n = heap_.refCount(obj);
        for (std::uint64_t i = 0; i < n; ++i)
            consider(heap_.refAt(obj, i));
    }

    for (Addr obj : found)
        visited.clear(obj);
    return demand;
}

bool
Scavenge::promotionGuaranteeHolds() const
{
    auto demand = estimateDemand();
    const auto &to = heap_.region(Space::To);
    // Bytes that must land in Old: aged promotions plus survivor
    // overflow, padded by one max-object of fragmentation slack.
    std::uint64_t overflow =
        demand.survivorBytes > to.capacity()
            ? demand.survivorBytes - to.capacity()
            : 0;
    std::uint64_t need_old =
        demand.promoteBytes + overflow + demand.largestObject;
    return need_old <= heap_.region(Space::Old).free();
}

bool
Scavenge::inSet(Addr target) const
{
    // A slot can be enqueued twice (an object spanning two dirty-card
    // clusters is scanned from both); once it points into To space it
    // is already processed.
    return heap_.inYoung(target) && heap_.spaceOf(target) != Space::To;
}

void
Scavenge::barrier(Addr slot, Addr target)
{
    // Re-dirty the card when an old-generation object ends up
    // referencing the young generation (promoted copies included).
    if (heap_.inOld(slot) && heap_.inYoung(target))
        heap_.cardTable().dirty(slot);
}

Scavenge::SlotRule
Scavenge::scanSlot(Addr, std::uint64_t, Addr target, bool weak)
{
    if (!heap_.inYoung(target))
        return SlotRule::Skip;
    return weak ? SlotRule::Weak : SlotRule::Push;
}

void
Scavenge::scanCards()
{
    rec_.beginPhase(PhaseKind::MinorCardScan);
    const auto &costs = rec_.costs();
    auto &cards = heap_.cardTable();
    const std::uint64_t num_cards = cards.numCards();
    const int threads = rec_.numThreads();
    const std::uint64_t stripe =
        mem::divCeil(num_cards, static_cast<std::uint64_t>(threads));

    for (int t = 0; t < threads; ++t) {
        rec_.setThread(t);
        std::uint64_t lo = static_cast<std::uint64_t>(t) * stripe;
        std::uint64_t hi = std::min(num_cards, lo + stripe);
        std::uint64_t cursor = lo;
        while (cursor < hi) {
            std::uint64_t dirty = cards.findDirty(cursor, hi);
            // One Search invocation scans up to the first dirty card
            // (Figure 7 returns there); the host then processes the
            // dirty cluster and issues the next Search.
            rec_.recordSearch(cards.storageAddr(cursor),
                              std::max<std::uint64_t>(
                                  1, dirty - cursor
                                         + (dirty < hi ? 1 : 0)));
            if (dirty >= hi)
                break;
            // Extend to the whole consecutive dirty cluster.
            std::uint64_t end = dirty;
            while (end < hi && cards.isDirty(end))
                ++end;
            result_.dirtyCards += end - dirty;

            // Scan the objects overlapping the dirty cluster.
            Addr cluster_end = cards.cardStart(end);
            Addr obj = heap_.firstObjectOnCard(dirty);
            rec_.recordGlue(costs.cardObjectLookup * (end - dirty),
                            end - dirty);
            Addr old_top = heap_.region(Space::Old).top;
            while (obj != 0 && obj < cluster_end && obj < old_top) {
                scanObject(obj);
                obj += heap_.sizeBytes(obj);
            }
            cursor = end;
        }
        rec_.recordGlue(costs.cardMaintain * (hi - lo) / 8);
    }
    // All cards examined; clean them.  Evacuation re-dirties the ones
    // that still hold old-to-young references.
    cards.cleanAll();
    rec_.endPhase();
}

Addr
Scavenge::copy(Addr obj)
{
    const auto &costs = rec_.costs();
    const std::uint64_t size_words = heap_.sizeWords(obj);
    const std::uint64_t bytes = size_words * 8;
    const int age = heap_.age(obj);

    Addr dest = 0;
    bool promoted = false;
    bool overflow = false;
    if (age + 1 >= threshold_) {
        dest = heap_.allocOld(size_words);
        promoted = dest != 0;
    }
    if (dest == 0) {
        dest = heap_.allocTo(size_words);
        if (dest == 0) {
            // Survivor overflow: promote instead.
            dest = heap_.allocOld(size_words);
            promoted = dest != 0;
            overflow = promoted;
        }
    }
    if (dest == 0) {
        // Promotion failure (the policy guarantee was violated — in
        // practice only by an injected allocation fault).  HotSpot
        // semantics: self-forward the object in place so every other
        // slot referencing it resolves to the original address; the
        // object is scanned where it lies and the collection
        // completes with a consistent heap.  collect() then reports
        // promotionFailed so the policy escalates to a full GC.
        heap_.setForwarding(obj, obj);
        failed_.push_back(obj);
        result_.promotionFailed = true;
        ++result_.objectsFailed;
        rec_.recordGlue(costs.forwardInstall, 1);
        return obj;
    }

    rec_.recordGlue(costs.allocate + costs.forwardInstall, 2);
    heap_.copyObjectBytes(dest, obj, bytes);
    rec_.recordCopy(obj, dest, bytes);
    heap_.setAge(dest, std::min(age + 1, 63));
    heap_.setForwarding(obj, dest);

    if (promoted) {
        ++result_.objectsPromoted;
        result_.bytesPromoted += bytes;
        if (overflow)
            result_.bytesOverflowPromoted += bytes;
    } else {
        ++result_.objectsCopied;
        result_.bytesCopied += bytes;
    }
    return dest;
}

Scavenge::Result
Scavenge::collect()
{
    rec_.beginGc(false);
    scanRoots();
    scanCards();
    drain();

    GcTrace &trace = rec_.endGc();
    trace.bytesCopied = result_.bytesCopied + result_.bytesPromoted;
    trace.bytesPromoted = result_.bytesPromoted;
    trace.liveObjects = result_.objectsCopied + result_.objectsPromoted;

    if (result_.promotionFailed) {
        // Degraded completion: live objects remain in Eden/From, so
        // nothing can be reclaimed here.  Drop the self-forwarding
        // marks (a header copied by the follow-up mark-compact must
        // not carry one); the age bits survive.  The policy runs a
        // full collection next, which compacts the whole heap without
        // allocating and resets every young space.
        for (Addr obj : failed_)
            heap_.clearForwarding(obj);
        failed_.clear();
        return result_;
    }

    // Reclaim: Eden and the old From space are now garbage; the To
    // space holds the survivors and becomes the next From.
    heap_.resetSpace(Space::Eden);
    heap_.resetSpace(Space::From);
    heap_.swapSurvivors();
    return result_;
}

} // namespace charon::gc
