/**
 * @file
 * The begin/end mark bitmaps of HotSpot's parallel compactor.
 *
 * One bit represents one 64-bit heap word (Section 3.2: "a single bit
 * represent[s] the 64-bit heap space").  A set bit in the *begin* map
 * marks the first word of a live object; a set bit in the *end* map
 * marks its last word.  live_words_in_range() — the Bitmap Count
 * primitive — is implemented here twice: exactly as in Figure 8 of the
 * paper, and as Charon's word-wise algorithm of Section 4.3.  The full
 * collector computes destinations with the word-wise count, over one
 * storage word from a block start; the Figure 8 walk is the reference
 * it is property-tested against.
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

    /**
     * Find the first set bit at or after @p from, strictly before
     * @p limit; returns limit when none.
     */
    std::uint64_t findNextSet(std::uint64_t from, std::uint64_t limit) const;

    /** Count set bits in [from, limit). */
    std::uint64_t countSet(std::uint64_t from, std::uint64_t limit) const;

    /** Raw 64-bit storage word (for the word-wise Bitmap Count). */
    std::uint64_t
    word(std::uint64_t index) const
    {
        CHARON_ASSERT(index < words_.size(), "word index out of range");
        return words_[index];
    }

    /**
     * Hint the storage word holding @p addr's bit into the host
     * cache; nothing for an address outside the covered range.
     */
    void
    prefetch(mem::Addr addr) const
    {
        if (addr >= heapBase_ && bitIndex(addr) < numBits_)
            __builtin_prefetch(&words_[bitIndex(addr) >> 6]);
    }

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

/**
 * Charon's word-wise Bitmap Count (Section 4.3) over bits
 * [start_bit, end_bit): semantically identical to liveWordsInRange,
 * but it treats the two maps as big binary numbers (least-significant
 * bit = lowest heap word) and computes
 *
 *     live_words = CountSetBits(endMap - begMap) + CountSetBits(begMap)
 *
 * For paired begin/end bits b < e the difference 2^e - 2^b sets
 * exactly the bits b..e-1, and pairs occupy disjoint bit ranges, so
 * the popcount of the difference is the sum of (e_k - b_k); adding
 * one per object (popcount of the begin map) yields the live-word
 * total.  (The paper writes the subtraction as begMap - endMap under
 * the opposite bit-significance convention; the arithmetic is the
 * same.)  The hardware processes one 64-bit word per cycle
 * (Figure 6(b)); the word-wise borrow propagation here is exactly
 * that datapath.
 *
 * Corner cases — "where the number of 1's differ between begMap and
 * endMap", i.e. ranges that cut through objects:
 *  - a leading end bit with no begin bit in range (the range starts
 *    inside an object) is dropped before the subtraction;
 *  - a trailing begin bit with no end bit in range (an object starts
 *    in range but ends beyond it) is dropped too.
 * Both match the Figure 8 reference, which never counts such objects.
 *
 * Allocates nothing, and reads each storage word up to the highest
 * one with a set bit once.  The mark-compact collector counts [64-word
 * block start, obj), a range inside one storage word, once per
 * adjusted pointer and once per moved object, and adds the block
 * table's offset (gc/mark_compact.hh).
 *
 * @return total 8-byte words occupied by live objects fully contained
 *         in the range
 */
std::uint64_t optimizedLiveWords(const MarkBitmap &beg,
                                 const MarkBitmap &end,
                                 std::uint64_t start_bit,
                                 std::uint64_t end_bit);

} // namespace charon::heap

#endif // CHARON_HEAP_BITMAP_HH
