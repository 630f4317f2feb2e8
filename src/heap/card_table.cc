#include "card_table.hh"

#include <bit>
#include <cstring>

#include "sim/logging.hh"

namespace charon::heap
{

CardTable::CardTable(mem::Addr covered_base, std::uint64_t covered_bytes,
                     mem::Addr storage_base)
    : coveredBase_(covered_base),
      storageBase_(storage_base),
      bytes_(mem::divCeil(covered_bytes, kCardBytes), kClean)
{
}

void
CardTable::cleanAll()
{
    std::fill(bytes_.begin(), bytes_.end(), kClean);
}

std::uint64_t
CardTable::findDirty(std::uint64_t from, std::uint64_t limit) const
{
    CHARON_ASSERT(limit <= bytes_.size(), "card range out of bounds");
    static_assert(std::endian::native == std::endian::little,
                  "countr_zero finds the lowest-addressed byte only on "
                  "little-endian hosts");
    // Clean is 0xFF, so eight clean cards read as an all-ones word:
    // byte steps up to a word boundary, then a word per load, then
    // byte steps over the tail.
    const std::uint8_t *cards = bytes_.data();
    std::uint64_t i = from;
    for (; i < limit && (i & 7) != 0; ++i) {
        if (cards[i] != kClean)
            return i;
    }
    for (; i + 8 <= limit; i += 8) {
        std::uint64_t word = 0;
        std::memcpy(&word, cards + i, 8);
        if (word != ~0ull)
            return i + std::countr_zero(~word) / 8;
    }
    for (; i < limit; ++i) {
        if (cards[i] != kClean)
            return i;
    }
    return limit;
}

} // namespace charon::heap
