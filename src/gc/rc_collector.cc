#include "rc_collector.hh"

#include "gc/mark_sweep.hh" // writeFiller
#include "gc/mark_work.hh"
#include "sim/logging.hh"

namespace charon::gc
{

using heap::Space;
using mem::Addr;

namespace
{

// An epoch's counts live in the mark word's payload field, which a
// non-moving collector never uses for forwarding: the epoch stamp
// above kCountBits, the count below.  A payload stamped by an earlier
// epoch, or a fresh header's zero, reads as count 0, so the counts
// need no clearing pass between epochs.
constexpr unsigned kCountBits = 32;
constexpr std::uint64_t kCountMask = (1ull << kCountBits) - 1;
constexpr unsigned kStampBits = 24;

} // namespace

RcCollector::RcCollector(heap::ManagedHeap &heap,
                         TraceRecorder &recorder)
    : heap_(heap),
      rec_(recorder),
      objects_(heap.region(Space::Old).start,
               heap.region(Space::Old).capacity(),
               /*storage_base=*/0) // bookkeeping: never traced
{
}

CapabilitySet
RcCollector::capabilities() const
{
    CapabilitySet caps;
    caps.primMask = primBit(PrimKind::RefCount)
                    | primBit(PrimKind::Copy)
                    | primBit(PrimKind::ScanPush);
    caps.hasCardTable = false; // no generational remembered set
    caps.hasMarkBitmap = true; // backup pass marks
    return caps;
}

std::uint64_t
RcCollector::freeQueueBlocks() const
{
    std::uint64_t n = 0;
    for (const auto &[words, stack] : bins_)
        n += stack.size();
    return n;
}

bool
RcCollector::isLive(Addr addr) const
{
    return heap_.inOld(addr) && objects_.test(addr);
}

template <typename Fn>
void
RcCollector::forEachLive(Fn fn)
{
    // fn may free the object it is handed: that clears a bit at the
    // cursor, which the walk has already passed.
    const std::uint64_t limit =
        objects_.bitIndex(heap_.region(Space::Old).top);
    for (std::uint64_t bit = objects_.findNextSet(0, limit); bit < limit;
         bit = objects_.findNextSet(bit + 1, limit)) {
        fn(objects_.bitAddr(bit));
    }
}

std::uint64_t
RcCollector::count(Addr obj) const
{
    std::uint64_t payload = heap_.arena().markPayload(obj);
    return (payload >> kCountBits) == stamp() ? payload & kCountMask : 0;
}

void
RcCollector::setCount(Addr obj, std::uint64_t n)
{
    CHARON_ASSERT(n <= kCountMask, "reference count overflow");
    heap_.arena().setMarkPayload(obj, (stamp() << kCountBits) | n);
}

Addr
RcCollector::takeFromBins(std::uint64_t need_words)
{
    // Exact-fit LIFO first (the common case: workloads reallocate
    // the sizes they just freed), then the smallest larger bin,
    // splitting.  Drained bins stay in the map and are skipped.
    auto it = bins_.find(need_words);
    if (it == bins_.end() || it->second.empty())
        it = bins_.lower_bound(need_words);
    for (; it != bins_.end(); ++it) {
        std::uint64_t rem = it->first - need_words;
        // A 1-word remainder cannot hold a filler.
        if (it->second.empty() || rem == 1)
            continue;
        Addr obj = it->second.back();
        it->second.pop_back();
        if (rem > 0) {
            Addr tail = obj + need_words * 8;
            MarkSweep::writeFiller(heap_, tail, rem * 8);
            bins_[rem].push_back(tail);
        }
        return obj;
    }
    return 0;
}

Addr
RcCollector::allocate(heap::KlassId klass, std::uint64_t array_len)
{
    std::uint64_t need_words = heap_.sizeWordsFor(klass, array_len);
    Addr obj = takeFromBins(need_words);
    if (obj != 0)
        heap_.arena().writeHeader(obj, klass, need_words, array_len);
    else
        obj = heap_.allocOldObject(klass, array_len);
    if (obj != 0)
        objects_.set(obj);
    return obj;
}

Addr
RcCollector::allocateHumongous(heap::KlassId klass,
                               std::uint64_t array_len)
{
    return allocate(klass, array_len);
}

void
RcCollector::freeObject(Addr obj)
{
    std::uint64_t bytes = heap_.sizeBytes(obj);
    // Recycled blocks are zero-filled (fresh-allocation guarantee):
    // a bulk write the Copy engine performs in memory.
    rec_.recordBlockZero(obj, bytes);
    MarkSweep::writeFiller(heap_, obj, bytes);
    bins_[bytes / 8].push_back(obj);
    objects_.clear(obj);
    freedBytes_ += bytes;
}

GcOutcome
RcCollector::onAllocationFailure()
{
    const auto &costs = rec_.costs();
    const auto &arena = heap_.arena();
    rec_.beginGc(true);
    freedBytes_ = 0;
    CHARON_ASSERT(stamp() < (1ull << kStampBits), "RC epoch stamp overflow");

    // --- Epoch count update (deferred RC): recompute every object's
    // count from the roots and the live objects' reference slots.
    // Each non-null reference is one count-word RMW somewhere in the
    // heap — the RefCount primitive's traffic.
    rec_.beginPhase(PhaseKind::RcUpdate);
    for (Addr root : heap_.roots()) {
        rec_.recordGlue(costs.rootVisit, 1);
        if (root != 0) {
            if (isLive(root))
                setCount(root, count(root) + 1);
            rec_.recordRefCount(root, 1);
        }
        rec_.nextThread();
    }
    forEachLive([&](Addr obj) {
        rec_.recordGlue(costs.typeDispatch, 1);
        std::uint64_t n = arena.refCount(obj);
        std::uint64_t updates = 0;
        for (std::uint64_t i = 0; i < n; ++i) {
            Addr target = arena.refAt(obj, i);
            // Weak slots count too: a pure-RC heap has no tracer to
            // clear weak referents, so they pin their target until
            // the backup pass runs.
            if (target != 0 && isLive(target)) {
                setCount(target, count(target) + 1);
                ++updates;
            }
        }
        if (updates > 0)
            rec_.recordRefCount(obj, updates);
        rec_.nextThread();
    });
    rec_.endPhase();

    // --- ZCT drain: free every zero-count object, transitively
    // decrementing its children.
    rec_.beginPhase(PhaseKind::RcReclaim);
    std::vector<Addr> zct;
    forEachLive([&](Addr obj) {
        if (count(obj) == 0)
            zct.push_back(obj);
    });
    while (!zct.empty()) {
        Addr obj = zct.back();
        zct.pop_back();
        if (!isLive(obj))
            continue; // already recycled via another path
        rec_.recordGlue(costs.popObject + costs.typeDispatch, 2);
        std::uint64_t n = arena.refCount(obj);
        std::uint64_t updates = 0;
        for (std::uint64_t i = 0; i < n; ++i) {
            Addr target = arena.refAt(obj, i);
            if (target == 0 || !isLive(target))
                continue;
            ++updates;
            std::uint64_t c = count(target);
            if (c > 0) {
                setCount(target, c - 1);
                if (c == 1)
                    zct.push_back(target);
            }
        }
        if (updates > 0)
            rec_.recordRefCount(obj, updates);
        freeObject(obj);
        rec_.nextThread();
    }
    rec_.endPhase();

    // --- Backup cycle pass: counting cannot see cycles, so when the
    // ZCT drain recovers too little, trace the heap with the shared
    // mark closure and free what the counts kept alive.
    const std::uint64_t old_capacity =
        heap_.region(Space::Old).capacity();
    if (freedBytes_ < old_capacity / 16) {
        MarkOptions opt; // single mark bitmap, CMS-style ordering
        runMarkClosure(heap_, rec_, opt);
        ++backupPasses_;

        rec_.beginPhase(PhaseKind::RcReclaim);
        const auto &mark = heap_.begBitmap();
        forEachLive([&](Addr obj) {
            if (mark.test(obj))
                return;
            rec_.recordGlue(costs.popObject, 1);
            freeObject(obj);
            rec_.nextThread();
        });
        rec_.endPhase();
    }

    rec_.endGc();
    ++epochs_;
    return freedBytes_ > 0 ? GcOutcome::Major : GcOutcome::OutOfMemory;
}

} // namespace charon::gc
