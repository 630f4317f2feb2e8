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

void
ObjectArena::copyBytes(mem::Addr dst, mem::Addr src, std::uint64_t bytes)
{
    CHARON_ASSERT(bytes > 0, "zero-byte copy");
    std::memmove(raw(dst, bytes), raw(src, bytes), bytes);
}

void
ObjectArena::setRef(mem::Addr obj, std::uint64_t i, mem::Addr target)
{
    store64(refSlotAddr(obj, i), target);
}

} // namespace charon::heap
