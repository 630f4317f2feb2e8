/**
 * @file
 * The card table: one byte of metadata per 512-byte card of the old
 * generation, tracking which old-generation regions may contain
 * references into the young generation.
 *
 * MinorGC's *Search* primitive (Figure 7) scans ranges of this table
 * looking for any non-clean byte; HotSpot encodes "clean" as 0xFF
 * (i.e. -1), which is why the pseudocode tests `*i != -1`.
 */

#ifndef CHARON_HEAP_CARD_TABLE_HH
#define CHARON_HEAP_CARD_TABLE_HH

#include <cstdint>
#include <vector>

#include "mem/addr.hh"

namespace charon::heap
{

/**
 * Byte-per-card remembered set over a heap range.
 */
class CardTable
{
  public:
    static constexpr std::uint64_t kCardBytes = 512;
    static constexpr std::uint8_t kClean = 0xFF;
    static constexpr std::uint8_t kDirty = 0x00;

    /**
     * @param covered_base first heap address covered
     * @param covered_bytes size of the covered heap range
     * @param storage_base VA where the table itself lives
     */
    CardTable(mem::Addr covered_base, std::uint64_t covered_bytes,
              mem::Addr storage_base);

    /** Card index covering @p addr. */
    std::uint64_t
    cardIndex(mem::Addr addr) const
    {
        return (addr - coveredBase_) / kCardBytes;
    }

    /** First heap address of card @p index. */
    mem::Addr
    cardStart(std::uint64_t index) const
    {
        return coveredBase_ + index * kCardBytes;
    }

    /** VA of the table byte for card @p index. */
    mem::Addr
    storageAddr(std::uint64_t index) const
    {
        return storageBase_ + index;
    }

    /** Mark the card containing @p addr dirty (mutator ref store). */
    void dirty(mem::Addr addr) { bytes_[cardIndex(addr)] = kDirty; }

    /** Mark card @p index dirty. */
    void dirtyCard(std::uint64_t index) { bytes_[index] = kDirty; }

    bool
    isDirty(std::uint64_t index) const
    {
        return bytes_[index] != kClean;
    }

    /** Reset every card to clean. */
    void cleanAll();

    /** Raw table byte (fault injection and corruption checks). */
    std::uint8_t rawByte(std::uint64_t index) const
    {
        return bytes_[index];
    }

    /** XOR @p mask into a table byte (fault injection). */
    void xorByte(std::uint64_t index, std::uint8_t mask)
    {
        bytes_[index] ^= mask;
    }

    /**
     * The Search primitive over card indices [from, limit): returns
     * the index of the first dirty card, or limit when none.
     */
    std::uint64_t findDirty(std::uint64_t from, std::uint64_t limit) const;

    std::uint64_t numCards() const { return bytes_.size(); }
    std::uint64_t storageBytes() const { return bytes_.size(); }

  private:
    mem::Addr coveredBase_;
    mem::Addr storageBase_;
    std::vector<std::uint8_t> bytes_;
};

} // namespace charon::heap

#endif // CHARON_HEAP_CARD_TABLE_HH
