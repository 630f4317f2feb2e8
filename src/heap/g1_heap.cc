#include "g1_heap.hh"

#include "sim/logging.hh"

namespace charon::heap
{

const char *
g1RegionKindName(G1RegionKind kind)
{
    switch (kind) {
      case G1RegionKind::Free:      return "free";
      case G1RegionKind::Eden:      return "eden";
      case G1RegionKind::Survivor:  return "survivor";
      case G1RegionKind::Old:       return "old";
      case G1RegionKind::Humongous: return "humongous";
    }
    return "unknown";
}

G1Heap::G1Heap(const G1Config &cfg, const KlassTable &klasses)
    : ObjectHeap(cfg.base, cfg.heapBytes, klasses), cfg_(cfg)
{
    CHARON_ASSERT(cfg.heapBytes % cfg.regionBytes == 0,
                  "heap must be a whole number of regions");
    const int n = static_cast<int>(cfg.heapBytes / cfg.regionBytes);
    regions_.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        G1Region &r = regions_[static_cast<std::size_t>(i)];
        r.index = i;
        r.start = cfg.base
                  + static_cast<mem::Addr>(i) * cfg.regionBytes;
        r.end = r.start + cfg.regionBytes;
        r.top = r.start;
    }
}

G1Region &
G1Heap::region(int index)
{
    CHARON_ASSERT(index >= 0 && index < numRegions(),
                  "bad region index %d", index);
    return regions_[static_cast<std::size_t>(index)];
}

const G1Region &
G1Heap::region(int index) const
{
    return const_cast<G1Heap *>(this)->region(index);
}

int
G1Heap::regionIndexOf(mem::Addr addr) const
{
    CHARON_ASSERT(arena_.contains(addr),
                  "address 0x%llx outside the G1 heap",
                  static_cast<unsigned long long>(addr));
    return static_cast<int>((addr - cfg_.base) / cfg_.regionBytes);
}

G1Region &
G1Heap::regionOf(mem::Addr addr)
{
    return region(regionIndexOf(addr));
}

const G1Region &
G1Heap::regionOf(mem::Addr addr) const
{
    return region(regionIndexOf(addr));
}

int
G1Heap::freeRegionCount() const
{
    return regionCount(G1RegionKind::Free);
}

int
G1Heap::regionCount(G1RegionKind kind) const
{
    int n = 0;
    for (const auto &r : regions_)
        n += (r.kind == kind) ? 1 : 0;
    return n;
}

int
G1Heap::claimRegion(G1RegionKind kind)
{
    CHARON_ASSERT(kind != G1RegionKind::Free, "cannot claim Free");
    for (auto &r : regions_) {
        if (r.kind == G1RegionKind::Free) {
            r.kind = kind;
            r.top = r.start;
            r.remset.clear();
            r.liveBytes = 0;
            r.humongousSpan = 0;
            return r.index;
        }
    }
    return -1;
}

void
G1Heap::releaseRegion(int index)
{
    G1Region &r = region(index);
    CHARON_ASSERT(r.kind != G1RegionKind::Free, "double release");
    CHARON_ASSERT(r.humongousSpan >= 0,
                  "released a humongous continuation directly");
    int span = r.humongousSpan;
    for (int i = index; i <= index + span; ++i) {
        G1Region &part = region(i);
        part.kind = G1RegionKind::Free;
        part.top = part.start;
        part.remset.clear();
        part.liveBytes = 0;
        part.humongousSpan = 0;
    }
    if (currentEden_ == index)
        currentEden_ = -1;
    if (currentSurvivor_ == index)
        currentSurvivor_ = -1;
    if (currentOld_ == index)
        currentOld_ = -1;
}

void
G1Heap::retireAllocationCursors()
{
    currentEden_ = -1;
    currentSurvivor_ = -1;
    currentOld_ = -1;
}

int &
G1Heap::currentFor(G1RegionKind kind)
{
    switch (kind) {
      case G1RegionKind::Eden:     return currentEden_;
      case G1RegionKind::Survivor: return currentSurvivor_;
      case G1RegionKind::Old:      return currentOld_;
      default:
        sim::panic("no allocation cursor for %s",
                   g1RegionKindName(kind));
    }
}

mem::Addr
G1Heap::allocIn(G1RegionKind kind, std::uint64_t size_words)
{
    CHARON_ASSERT(size_words * 8 <= cfg_.regionBytes,
                  "object larger than a region: use allocateHumongous");
    int &cursor = currentFor(kind);
    for (int attempt = 0; attempt < 2; ++attempt) {
        if (cursor >= 0) {
            G1Region &r = region(cursor);
            if (r.free() >= size_words * 8) {
                mem::Addr obj = r.top;
                r.top += size_words * 8;
                return obj;
            }
        }
        cursor = claimRegion(kind);
        if (cursor < 0)
            return 0;
    }
    return 0;
}

mem::Addr
G1Heap::allocate(KlassId klass, std::uint64_t array_len)
{
    std::uint64_t size_words = arena_.sizeWordsFor(klass, array_len);
    if (size_words * 8 > cfg_.regionBytes / 2)
        return allocateHumongous(klass, array_len);
    // Respect the Eden budget: demand a GC instead of growing Eden
    // without bound.
    if (currentEden_ < 0
        || region(currentEden_).free() < size_words * 8) {
        if (regionCount(G1RegionKind::Eden) >= cfg_.maxEdenRegions)
            return 0;
    }
    mem::Addr obj = allocIn(G1RegionKind::Eden, size_words);
    if (obj == 0)
        return 0;
    arena_.writeHeader(obj, klass, size_words, array_len);
    return obj;
}

mem::Addr
G1Heap::allocateHumongous(KlassId klass, std::uint64_t array_len)
{
    std::uint64_t size_words = arena_.sizeWordsFor(klass, array_len);
    std::uint64_t need_regions =
        mem::divCeil(size_words * 8, cfg_.regionBytes);
    // First-fit contiguous run of free regions.
    for (int i = 0; i + static_cast<int>(need_regions) <= numRegions();
         ++i) {
        bool fits = true;
        for (std::uint64_t j = 0; j < need_regions; ++j) {
            if (region(i + static_cast<int>(j)).kind
                != G1RegionKind::Free) {
                fits = false;
                break;
            }
        }
        if (!fits)
            continue;
        for (std::uint64_t j = 0; j < need_regions; ++j) {
            G1Region &part = region(i + static_cast<int>(j));
            part.kind = G1RegionKind::Humongous;
            part.top = part.end;
            part.remset.clear();
            part.humongousSpan = -1; // continuation marker
        }
        G1Region &head = region(i);
        head.humongousSpan = static_cast<int>(need_regions) - 1;
        head.top = head.start + size_words * 8 < head.end
                       ? head.start + size_words * 8
                       : head.end;
        arena_.writeHeader(head.start, klass, size_words, array_len);
        return head.start;
    }
    return 0;
}

void
G1Heap::recordRemset(mem::Addr slot, mem::Addr target)
{
    if (target == 0)
        return;
    int slot_region = regionIndexOf(slot);
    int target_region = regionIndexOf(target);
    if (slot_region != target_region)
        region(target_region).remset.insert(slot);
}

void
G1Heap::storeRef(mem::Addr obj, std::uint64_t i, mem::Addr target)
{
    mem::Addr slot = arena_.refSlotAddr(obj, i);
    arena_.store64(slot, target);
    // G1 post-barrier: cross-region stores feed the remembered set.
    recordRemset(slot, target);
}

void
G1Heap::forEachObjectInRegion(
    int index, const std::function<void(mem::Addr)> &fn) const
{
    const G1Region &r = region(index);
    if (r.kind == G1RegionKind::Free)
        return;
    if (r.kind == G1RegionKind::Humongous) {
        // Only the head region (humongousSpan >= 0) starts an object;
        // continuations carry the marker -1.
        if (r.humongousSpan >= 0)
            fn(r.start);
        return;
    }
    mem::Addr p = r.start;
    while (p < r.top) {
        std::uint64_t size = arena_.sizeWords(p);
        CHARON_ASSERT(size >= 2, "corrupt object at 0x%llx",
                      static_cast<unsigned long long>(p));
        fn(p);
        p += size * 8;
    }
}

void
G1Heap::verify() const
{
    for (const auto &r : regions_) {
        if (r.kind == G1RegionKind::Free)
            continue;
        forEachObjectInRegion(r.index, [&](mem::Addr obj) {
            KlassId kid = arena_.klassOf(obj);
            CHARON_ASSERT(kid > 0 && kid < klasses().size(),
                          "bad klass %u at 0x%llx", kid,
                          static_cast<unsigned long long>(obj));
            std::uint64_t n = arena_.refCount(obj);
            for (std::uint64_t i = 0; i < n; ++i) {
                mem::Addr t = arena_.refAt(obj, i);
                CHARON_ASSERT(
                    t == 0
                        || (arena_.contains(t)
                            && regionOf(t).kind != G1RegionKind::Free),
                    "dangling ref 0x%llx slot %llu -> 0x%llx",
                    static_cast<unsigned long long>(obj),
                    static_cast<unsigned long long>(i),
                    static_cast<unsigned long long>(t));
            }
        });
    }
}

} // namespace charon::heap
