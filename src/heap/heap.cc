#include "heap.hh"

#include <cstring>

#include "sim/logging.hh"

namespace charon::heap
{

const char *
spaceName(Space space)
{
    switch (space) {
      case Space::Old:  return "old";
      case Space::Eden: return "eden";
      case Space::From: return "from";
      case Space::To:   return "to";
      case Space::None: return "none";
    }
    return "unknown";
}

ManagedHeap::ManagedHeap(const HeapConfig &cfg, const KlassTable &klasses)
    : ObjectHeap(cfg.base, cfg.heapBytes, klasses),
      cfg_(cfg),
      cards_(/*covered_base=*/cfg.base,
             /*covered_bytes=*/static_cast<std::uint64_t>(
                 (1.0 - cfg.youngFraction) * cfg.heapBytes),
             /*storage_base=*/0), // fixed up below
      begMap_(cfg.base, cfg.heapBytes, 0),
      endMap_(cfg.base, cfg.heapBytes, 0),
      stats_("heap"),
      bytesAllocated_(&stats_, "bytes_allocated", "mutator bytes allocated"),
      objectsAllocated_(&stats_, "objects_allocated",
                        "mutator objects allocated"),
      allocFailures_(&stats_, "alloc_failures", "eden exhaustion events")
{
    CHARON_ASSERT(cfg.heapBytes % 4096 == 0, "heap size must be page sized");

    const std::uint64_t old_bytes = mem::alignDown(
        static_cast<std::uint64_t>((1.0 - cfg.youngFraction)
                                   * cfg.heapBytes),
        4096);
    const std::uint64_t young_bytes = cfg.heapBytes - old_bytes;
    // Eden : Survivor : Survivor = ratio : 1 : 1.
    const std::uint64_t survivor_bytes = mem::alignDown(
        young_bytes / static_cast<std::uint64_t>(cfg.survivorRatio + 2),
        4096);
    const std::uint64_t eden_bytes = young_bytes - 2 * survivor_bytes;

    mem::Addr p = cfg.base;
    old_ = {p, p + old_bytes, p};
    p += old_bytes;
    eden_ = {p, p + eden_bytes, p};
    p += eden_bytes;
    from_ = {p, p + survivor_bytes, p};
    p += survivor_bytes;
    to_ = {p, p + survivor_bytes, p};
    p += survivor_bytes;

    // Metadata VAs: begin bitmap, end bitmap, card table.
    const std::uint64_t bitmap_bytes = begMap_.storageBytes();
    begMap_ = MarkBitmap(cfg.base, cfg.heapBytes, p);
    p += bitmap_bytes;
    endMap_ = MarkBitmap(cfg.base, cfg.heapBytes, p);
    p += bitmap_bytes;
    cards_ = CardTable(old_.start, old_bytes, p);
    p += cards_.storageBytes();
    vaLimit_ = p;

    firstObjInCard_.assign(cards_.numCards(), 0);
}

Region &
ManagedHeap::region(Space space)
{
    switch (space) {
      case Space::Old:  return old_;
      case Space::Eden: return eden_;
      case Space::From: return from_;
      case Space::To:   return to_;
      case Space::None: break;
    }
    sim::panic("region(None)");
}

const Region &
ManagedHeap::region(Space space) const
{
    return const_cast<ManagedHeap *>(this)->region(space);
}

Space
ManagedHeap::spaceOf(mem::Addr addr) const
{
    if (old_.contains(addr))
        return Space::Old;
    if (eden_.contains(addr))
        return Space::Eden;
    if (from_.contains(addr))
        return Space::From;
    if (to_.contains(addr))
        return Space::To;
    return Space::None;
}

bool
ManagedHeap::inYoung(mem::Addr addr) const
{
    return eden_.contains(addr) || from_.contains(addr)
           || to_.contains(addr);
}

mem::Addr
ManagedHeap::allocIn(Region &region, std::uint64_t size_words)
{
    const std::uint64_t bytes = size_words * 8;
    if (region.free() < bytes)
        return 0;
    mem::Addr obj = region.top;
    region.top += bytes;
    return obj;
}

mem::Addr
ManagedHeap::allocEden(KlassId klass, std::uint64_t array_len)
{
    std::uint64_t size_words = sizeWordsFor(klass, array_len);
    mem::Addr obj = allocIn(eden_, size_words);
    if (obj == 0) {
        ++allocFailures_;
        return 0;
    }
    arena_.writeHeader(obj, klass, size_words, array_len);
    bytesAllocated_ += static_cast<double>(size_words * 8);
    ++objectsAllocated_;
    return obj;
}

mem::Addr
ManagedHeap::allocTo(std::uint64_t size_words)
{
    if (gcAllocFaultFires())
        return 0;
    return allocIn(to_, size_words);
}

mem::Addr
ManagedHeap::allocOld(std::uint64_t size_words)
{
    if (gcAllocFaultFires())
        return 0;
    return allocOldRaw(size_words);
}

mem::Addr
ManagedHeap::allocOldRaw(std::uint64_t size_words)
{
    mem::Addr obj = allocIn(old_, size_words);
    if (obj != 0)
        noteOldAllocation(obj);
    return obj;
}

void
ManagedHeap::setGcAllocFault(std::uint64_t after, std::uint64_t count)
{
    gcFaultAfter_ = after;
    gcFaultRemaining_ = count;
    gcFaultArmed_ = count > 0;
}

bool
ManagedHeap::gcAllocFaultFires()
{
    if (!gcFaultArmed_)
        return false;
    if (gcFaultAfter_ > 0) {
        --gcFaultAfter_;
        return false;
    }
    --gcFaultRemaining_;
    if (gcFaultRemaining_ == 0)
        gcFaultArmed_ = false;
    return true;
}

mem::Addr
ManagedHeap::allocOldObject(KlassId klass, std::uint64_t array_len)
{
    std::uint64_t size_words = sizeWordsFor(klass, array_len);
    // The humongous/mutator path bypasses the GC alloc-fault arm: the
    // injected failure targets copy/promotion allocations inside a
    // collection.
    mem::Addr obj = allocOldRaw(size_words);
    if (obj == 0)
        return 0;
    arena_.writeHeader(obj, klass, size_words, array_len);
    bytesAllocated_ += static_cast<double>(size_words * 8);
    ++objectsAllocated_;
    return obj;
}

void
ManagedHeap::noteOldAllocation(mem::Addr obj)
{
    std::uint64_t card = cards_.cardIndex(obj);
    if (firstObjInCard_[card] == 0 || firstObjInCard_[card] > obj)
        firstObjInCard_[card] = obj;
}

void
ManagedHeap::storeRef(mem::Addr obj, std::uint64_t i, mem::Addr target)
{
    store64(refSlotAddr(obj, i), target);
    // Unconditional card marking on old-generation stores, as in
    // HotSpot's card-table post-barrier.
    if (inOld(obj))
        cards_.dirty(obj);
}

void
ManagedHeap::forEachObject(Space space,
                           const std::function<void(mem::Addr)> &fn) const
{
    const Region &r = region(space);
    mem::Addr p = r.start;
    while (p < r.top) {
        std::uint64_t size = sizeWords(p);
        CHARON_ASSERT(size >= 2, "corrupt object at 0x%llx",
                      static_cast<unsigned long long>(p));
        fn(p);
        p += size * 8;
    }
}

void
ManagedHeap::forEachRefSlot(mem::Addr obj,
                            const std::function<void(mem::Addr)> &fn) const
{
    std::uint64_t n = refCount(obj);
    for (std::uint64_t i = 0; i < n; ++i)
        fn(refSlotAddr(obj, i));
}

mem::Addr
ManagedHeap::firstObjectOnCard(std::uint64_t card_index) const
{
    mem::Addr card_start = cards_.cardStart(card_index);
    if (card_start >= old_.top)
        return 0;
    // Find the last recorded object start at or before the card start:
    // the entry recorded for this card may itself begin after the card
    // start, in which case the covering object starts in an earlier
    // card.
    std::uint64_t c = card_index;
    while (c > 0
           && (firstObjInCard_[c] == 0
               || firstObjInCard_[c] > card_start)) {
        --c;
    }
    mem::Addr p = firstObjInCard_[c];
    if (p == 0)
        return 0; // old generation empty below this card
    // Walk forward to the first object overlapping the target card;
    // allocation is contiguous, so the first object whose end extends
    // past the card start is it.
    while (p < old_.top) {
        mem::Addr obj_end = p + sizeWords(p) * 8;
        if (obj_end > card_start)
            return p;
        p = obj_end;
    }
    return 0;
}

void
ManagedHeap::rebuildBlockOffsets()
{
    std::fill(firstObjInCard_.begin(), firstObjInCard_.end(), 0);
    forEachObject(Space::Old, [this](mem::Addr obj) {
        noteOldAllocation(obj);
    });
}

MarkBitmap &
ManagedHeap::youngScratchMap()
{
    if (!youngScratch_) {
        // Eden and both survivor spaces run to the end of the heap.
        youngScratch_.emplace(eden_.start,
                              cfg_.base + cfg_.heapBytes - eden_.start,
                              /*storage_base=*/0);
    }
    return *youngScratch_;
}

void
ManagedHeap::resetSpace(Space space)
{
    region(space).reset();
    if (space == Space::Old)
        std::fill(firstObjInCard_.begin(), firstObjInCard_.end(), 0);
}

void
ManagedHeap::swapSurvivors()
{
    std::swap(from_, to_);
}

void
ManagedHeap::setOldTop(mem::Addr top)
{
    CHARON_ASSERT(top >= old_.start && top <= old_.end,
                  "old top out of range");
    old_.top = top;
}

void
ManagedHeap::verifySpace(Space space) const
{
    const Region &r = region(space);
    mem::Addr p = r.start;
    while (p < r.top) {
        KlassId kid = klassOf(p);
        CHARON_ASSERT(kid > 0 && kid < klasses().size(),
                      "bad klass id %u at 0x%llx", kid,
                      static_cast<unsigned long long>(p));
        std::uint64_t size = sizeWords(p);
        CHARON_ASSERT(size >= 2 && p + size * 8 <= r.top,
                      "object at 0x%llx overruns space",
                      static_cast<unsigned long long>(p));
        // Every reference must be null or point at a valid space.
        std::uint64_t n = refCount(p);
        for (std::uint64_t i = 0; i < n; ++i) {
            mem::Addr t = refAt(p, i);
            CHARON_ASSERT(t == 0 || spaceOf(t) != Space::None,
                          "dangling ref in 0x%llx slot %llu -> 0x%llx",
                          static_cast<unsigned long long>(p),
                          static_cast<unsigned long long>(i),
                          static_cast<unsigned long long>(t));
        }
        p += size * 8;
    }
}

std::uint64_t
ManagedHeap::objectCount(Space space) const
{
    std::uint64_t n = 0;
    forEachObject(space, [&n](mem::Addr) { ++n; });
    return n;
}

} // namespace charon::heap
