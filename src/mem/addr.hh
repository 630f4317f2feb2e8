/**
 * @file
 * Address types and alignment helpers shared by the heap and the
 * memory-system models.
 */

#ifndef CHARON_MEM_ADDR_HH
#define CHARON_MEM_ADDR_HH

#include <cstdint>

#include "sim/logging.hh"

namespace charon::mem
{

/** A (virtual) byte address in the simulated machine. */
using Addr = std::uint64_t;

/** Round @p v down to a multiple of @p align (power of two). */
constexpr std::uint64_t
alignDown(std::uint64_t v, std::uint64_t align)
{
    return v & ~(align - 1);
}

/** True when @p v is a power of two (and nonzero). */
constexpr bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/**
 * Round @p v up to a multiple of @p align, which must be a power of
 * two: the rounding masks.  Use divCeil for any other unit.
 */
constexpr std::uint64_t
alignUp(std::uint64_t v, std::uint64_t align)
{
    CHARON_ASSERT(isPow2(align), "alignUp to %llu, not a power of two",
                  static_cast<unsigned long long>(align));
    return (v + align - 1) & ~(align - 1);
}

/** log2 of a power of two. */
constexpr int
log2i(std::uint64_t v)
{
    int n = 0;
    while (v > 1) {
        v >>= 1;
        ++n;
    }
    return n;
}

/** Number of @p unit-sized pieces needed to cover @p bytes. */
constexpr std::uint64_t
divCeil(std::uint64_t bytes, std::uint64_t unit)
{
    return (bytes + unit - 1) / unit;
}

} // namespace charon::mem

#endif // CHARON_MEM_ADDR_HH
