/**
 * @file
 * The begin/end mark bitmaps of HotSpot's parallel compactor.
 *
 * One bit represents one 64-bit heap word (Section 3.2: "a single bit
 * represent[s] the 64-bit heap space").  A set bit in the *begin* map
 * marks the first word of a live object; a set bit in the *end* map
 * marks its last word.  live_words_in_range() — the software Bitmap
 * Count primitive — is implemented here exactly as in Figure 8 of the
 * paper and serves as the reference against which the accelerator's
 * optimized algorithm is property-tested.
 */

#ifndef CHARON_HEAP_BITMAP_HH
#define CHARON_HEAP_BITMAP_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "mem/addr.hh"
#include "sim/logging.hh"

namespace charon::heap
{

/**
 * A bit-per-word bitmap over a heap address range.
 */
class MarkBitmap
{
  public:
    /**
     * @param heap_base lowest heap address covered
     * @param heap_bytes size of the covered range (multiple of 8)
     * @param storage_base the VA at which the bitmap itself lives
     *        (used by the timing layer to attribute its memory traffic)
     */
    MarkBitmap(mem::Addr heap_base, std::uint64_t heap_bytes,
               mem::Addr storage_base);

    /** Heap address -> bit index. */
    std::uint64_t
    bitIndex(mem::Addr addr) const
    {
        return (addr - heapBase_) >> 3;
    }

    /** Bit index -> heap address. */
    mem::Addr
    bitAddr(std::uint64_t bit) const
    {
        return heapBase_ + (bit << 3);
    }

    /** VA of the byte that stores @p bit (for traffic attribution). */
    mem::Addr
    storageAddrOfBit(std::uint64_t bit) const
    {
        return storageBase_ + (bit >> 3);
    }

    void set(mem::Addr addr) { setBit(bitIndex(addr)); }
    void clear(mem::Addr addr) { clearBit(bitIndex(addr)); }
    bool test(mem::Addr addr) const { return testBit(bitIndex(addr)); }

    void
    setBit(std::uint64_t bit)
    {
        checkBit(bit);
        words_[bit >> 6] |= (1ull << (bit & 63));
    }

    void
    clearBit(std::uint64_t bit)
    {
        checkBit(bit);
        words_[bit >> 6] &= ~(1ull << (bit & 63));
    }

    bool
    testBit(std::uint64_t bit) const
    {
        checkBit(bit);
        return (words_[bit >> 6] >> (bit & 63)) & 1;
    }

    /** Clear the whole map. */
    void clearAll();

    /** Number of bits (heap words covered). */
    std::uint64_t numBits() const { return numBits_; }

    /** Bytes of backing storage (what HotSpot would allocate). */
    std::uint64_t storageBytes() const { return words_.size() * 8; }

    mem::Addr storageBase() const { return storageBase_; }
    mem::Addr heapBase() const { return heapBase_; }

    /**
     * Find the first set bit at or after @p from, strictly before
     * @p limit; returns limit when none.
     */
    std::uint64_t findNextSet(std::uint64_t from, std::uint64_t limit) const;

    /** Count set bits in [from, limit). */
    std::uint64_t countSet(std::uint64_t from, std::uint64_t limit) const;

    /** Raw 64-bit storage word (for the accelerator's word-wise math). */
    std::uint64_t word(std::uint64_t index) const;
    std::uint64_t numWords() const { return words_.size(); }

  private:
    void
    checkBit(std::uint64_t bit) const
    {
        CHARON_ASSERT(bit < numBits_, "bit %llu out of range",
                      static_cast<unsigned long long>(bit));
    }

    mem::Addr heapBase_;
    mem::Addr storageBase_;
    std::uint64_t numBits_;
    std::vector<std::uint64_t> words_;
};

/**
 * Reference software implementation of live_words_in_range (Figure 8):
 * walks the begin/end maps bit by bit and sums the sizes of live
 * objects whose begin bit falls inside [range_start, range_end) bits.
 *
 * Exactly as in Figure 8: an object whose begin bit is inside the
 * range but whose end bit lies beyond it contributes nothing (in
 * HotSpot the range end is an object boundary during compaction, so
 * the case only arises for arbitrary ranges, which tests exercise);
 * an end bit with no preceding begin bit in the range is ignored.
 *
 * @param beg begin map
 * @param end end map
 * @param start_bit first bit of the range
 * @param end_bit one past the last bit of the range
 * @param bitmap_reads optional sink receiving the VA of every bitmap
 *        byte the walk touches (feeds the bitmap-cache model)
 */
std::uint64_t liveWordsInRange(
    const MarkBitmap &beg, const MarkBitmap &end, std::uint64_t start_bit,
    std::uint64_t end_bit,
    const std::function<void(mem::Addr)> &bitmap_reads = nullptr);

} // namespace charon::heap

#endif // CHARON_HEAP_BITMAP_HH
