#include "arena.hh"

#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <new>
#include <vector>

#include "sim/logging.hh"

namespace charon::heap
{

namespace
{

// Mark-word encoding: bit 0 = forwarded, bits 1..6 = age,
// bits 8..63 = forwarding address >> 3.
constexpr std::uint64_t kFwdFlag = 1ull;
constexpr std::uint64_t kAgeShift = 1;
constexpr std::uint64_t kAgeMask = 0x3full << kAgeShift;
constexpr std::uint64_t kFwdAddrShift = 8;

// Transparent huge page size with 4 KiB base pages (x86-64, arm64).
// Recent Linux kernels place an anonymous mapping whose length is a
// multiple of it on a huge-page boundary.
constexpr std::uint64_t kHugePageBytes = 2ull << 20;

/** A demand-zero private mapping of @p bytes, advised for huge pages. */
std::uint8_t *
mapZeroed(std::uint64_t bytes)
{
    CHARON_ASSERT(bytes > 0, "empty arena");
    void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
#ifdef MADV_HUGEPAGE
    // Advice only: where transparent huge pages are off, the arena
    // runs on base pages and behaves the same.
    madvise(p, bytes, MADV_HUGEPAGE);
#endif
    return static_cast<std::uint8_t *>(p);
}

} // namespace

ObjectArena::ObjectArena(mem::Addr base, std::uint64_t bytes,
                         const KlassTable &klasses)
    : base_(base),
      bytes_(bytes),
      klasses_(klasses),
      mapBytes_(mem::alignUp(bytes, kHugePageBytes)),
      data_(mapZeroed(mapBytes_))
{
    CHARON_ASSERT((base & 7) == 0 && (bytes & 7) == 0,
                  "arena must be word aligned");
}

ObjectArena::~ObjectArena()
{
    munmap(data_, mapBytes_);
}

std::uint64_t
ObjectArena::residentBytes() const
{
    const std::uint64_t page =
        static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
    std::vector<unsigned char> pages(mem::divCeil(mapBytes_, page));
    int rc = mincore(data_, mapBytes_, pages.data());
    CHARON_ASSERT(rc == 0, "mincore failed on the arena");
    std::uint64_t resident = 0;
    for (unsigned char p : pages)
        resident += p & 1;
    return resident * page;
}

std::uint8_t *
ObjectArena::raw(mem::Addr addr, std::uint64_t len)
{
    // The whole access must fit: the mapping runs on past bytes_ to
    // the next huge page, so neither the kernel nor a sanitizer would
    // catch a word that straddles the limit.
    CHARON_ASSERT(addr >= base_ && len <= bytes_
                      && addr - base_ <= bytes_ - len,
                  "arena access out of bounds: 0x%llx+%llu",
                  static_cast<unsigned long long>(addr),
                  static_cast<unsigned long long>(len));
    return data_ + (addr - base_);
}

const std::uint8_t *
ObjectArena::raw(mem::Addr addr, std::uint64_t len) const
{
    return const_cast<ObjectArena *>(this)->raw(addr, len);
}

std::uint64_t
ObjectArena::load64(mem::Addr addr) const
{
    std::uint64_t v;
    std::memcpy(&v, raw(addr, 8), 8);
    return v;
}

void
ObjectArena::store64(mem::Addr addr, std::uint64_t value)
{
    std::memcpy(raw(addr, 8), &value, 8);
}

void
ObjectArena::copyBytes(mem::Addr dst, mem::Addr src, std::uint64_t bytes)
{
    CHARON_ASSERT(bytes > 0, "zero-byte copy");
    std::memmove(raw(dst, bytes), raw(src, bytes), bytes);
}

std::uint64_t
ObjectArena::sizeWordsFor(KlassId klass, std::uint64_t array_len) const
{
    const Klass &k = klasses_.get(klass);
    if (k.kind == KlassKind::ObjArray)
        return 3 + array_len;
    if (isTypeArrayKind(k.kind)) {
        return 3
               + mem::divCeil(array_len
                                  * static_cast<std::uint64_t>(
                                      typeArrayElemBytes(k.kind)),
                              8);
    }
    if (k.kind == KlassKind::ConstantPool
        || k.kind == KlassKind::MethodData) {
        return 3 + mem::divCeil(array_len, 8);
    }
    return k.instanceWords();
}

void
ObjectArena::writeHeader(mem::Addr obj, KlassId klass,
                         std::uint64_t size_words,
                         std::uint64_t array_len)
{
    CHARON_ASSERT(size_words >= 2, "undersized object");
    CHARON_ASSERT(size_words < (1ull << 32), "oversized object");
    store64(obj, static_cast<std::uint64_t>(klass) | (size_words << 32));
    store64(obj + 8, 0);
    const Klass &k = klasses_.get(klass);
    if (k.kind == KlassKind::ObjArray || isTypeArrayKind(k.kind)
        || k.kind == KlassKind::ConstantPool
        || k.kind == KlassKind::MethodData) {
        store64(obj + 16, array_len);
        if (k.kind == KlassKind::ObjArray) {
            for (std::uint64_t i = 0; i < array_len; ++i)
                store64(obj + 24 + i * 8, 0);
        }
    } else {
        for (std::uint64_t i = 0; i < k.refFields; ++i)
            store64(obj + 16 + i * 8, 0);
    }
}

KlassId
ObjectArena::klassOf(mem::Addr obj) const
{
    return static_cast<KlassId>(load64(obj) & 0xffffffffull);
}

std::uint64_t
ObjectArena::sizeWords(mem::Addr obj) const
{
    return load64(obj) >> 32;
}

std::uint64_t
ObjectArena::arrayLength(mem::Addr obj) const
{
    return load64(obj + 16);
}

std::uint64_t
ObjectArena::refCount(mem::Addr obj) const
{
    const Klass &k = klasses_.get(klassOf(obj));
    if (k.kind == KlassKind::ObjArray)
        return arrayLength(obj);
    switch (k.kind) {
      case KlassKind::Instance:
      case KlassKind::InstanceMirror:
      case KlassKind::InstanceClassLoader:
      case KlassKind::InstanceRef:
        return k.refFields;
      default:
        return 0;
    }
}

mem::Addr
ObjectArena::refSlotAddr(mem::Addr obj, std::uint64_t i) const
{
    const Klass &k = klasses_.get(klassOf(obj));
    if (k.kind == KlassKind::ObjArray)
        return obj + 24 + i * 8;
    return obj + 16 + i * 8;
}

mem::Addr
ObjectArena::refAt(mem::Addr obj, std::uint64_t i) const
{
    return load64(refSlotAddr(obj, i));
}

void
ObjectArena::setRef(mem::Addr obj, std::uint64_t i, mem::Addr target)
{
    store64(refSlotAddr(obj, i), target);
}

int
ObjectArena::age(mem::Addr obj) const
{
    return static_cast<int>((load64(obj + 8) & kAgeMask) >> kAgeShift);
}

void
ObjectArena::setAge(mem::Addr obj, int age)
{
    std::uint64_t mark = load64(obj + 8);
    mark = (mark & ~kAgeMask)
           | ((static_cast<std::uint64_t>(age) << kAgeShift) & kAgeMask);
    store64(obj + 8, mark);
}

bool
ObjectArena::isForwarded(mem::Addr obj) const
{
    return load64(obj + 8) & kFwdFlag;
}

mem::Addr
ObjectArena::forwardee(mem::Addr obj) const
{
    CHARON_ASSERT(isForwarded(obj), "forwardee of unforwarded object");
    return (load64(obj + 8) >> kFwdAddrShift) << 3;
}

void
ObjectArena::setForwarding(mem::Addr obj, mem::Addr to)
{
    CHARON_ASSERT((to & 7) == 0, "unaligned forwardee");
    std::uint64_t mark = load64(obj + 8);
    mark = (mark & kAgeMask) | kFwdFlag | ((to >> 3) << kFwdAddrShift);
    store64(obj + 8, mark);
}

void
ObjectArena::clearForwarding(mem::Addr obj)
{
    store64(obj + 8, load64(obj + 8) & kAgeMask);
}

} // namespace charon::heap
