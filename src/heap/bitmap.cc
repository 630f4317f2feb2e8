#include "bitmap.hh"

#include <bit>

#include "sim/logging.hh"

namespace charon::heap
{

MarkBitmap::MarkBitmap(mem::Addr heap_base, std::uint64_t heap_bytes,
                       mem::Addr storage_base)
    : heapBase_(heap_base),
      storageBase_(storage_base),
      numBits_(heap_bytes / 8),
      words_(mem::divCeil(numBits_, 64), 0)
{
    CHARON_ASSERT(heap_bytes % 8 == 0,
                  "bitmap range must be word aligned");
}

void
MarkBitmap::clearAll()
{
    std::fill(words_.begin(), words_.end(), 0);
}

std::uint64_t
MarkBitmap::word(std::uint64_t index) const
{
    CHARON_ASSERT(index < words_.size(), "word index out of range");
    return words_[index];
}

std::uint64_t
MarkBitmap::findNextSet(std::uint64_t from, std::uint64_t limit) const
{
    if (from >= limit)
        return limit;
    std::uint64_t word_idx = from >> 6;
    std::uint64_t w = words_[word_idx] & (~0ull << (from & 63));
    while (true) {
        if (w != 0) {
            std::uint64_t bit = (word_idx << 6)
                                + static_cast<std::uint64_t>(
                                    std::countr_zero(w));
            return bit < limit ? bit : limit;
        }
        ++word_idx;
        if ((word_idx << 6) >= limit)
            return limit;
        w = words_[word_idx];
    }
}

std::uint64_t
MarkBitmap::countSet(std::uint64_t from, std::uint64_t limit) const
{
    std::uint64_t count = 0;
    std::uint64_t bit = from;
    while (bit < limit) {
        std::uint64_t word_idx = bit >> 6;
        std::uint64_t w = words_[word_idx];
        // Mask bits below 'bit' and at/after 'limit'.
        w &= ~0ull << (bit & 63);
        std::uint64_t word_end = (word_idx + 1) << 6;
        if (limit < word_end)
            w &= (limit & 63) ? (~0ull >> (64 - (limit & 63))) : 0ull;
        count += static_cast<std::uint64_t>(std::popcount(w));
        bit = word_end;
    }
    return count;
}

std::uint64_t
liveWordsInRange(const MarkBitmap &beg, const MarkBitmap &end,
                 std::uint64_t start_bit, std::uint64_t end_bit,
                 const std::function<void(mem::Addr)> &bitmap_reads)
{
    // Faithful rendering of Figure 8: scan the begin map; for every
    // begin bit search forward for the matching end bit; an object
    // whose end bit lies at or beyond the range end contributes
    // nothing (and terminates the walk, as in the paper's pseudocode).
    //
    // The walk is bit-granular but we only report one storage-byte
    // read per visited byte to the bitmap-cache listener, mirroring
    // what the hardware would fetch.
    std::uint64_t count = 0;
    std::uint64_t last_beg_byte = ~0ull, last_end_byte = ~0ull;
    auto touch = [&](const MarkBitmap &map, std::uint64_t bit,
                     std::uint64_t &last) {
        if (!bitmap_reads)
            return;
        std::uint64_t byte = bit >> 3;
        if (byte != last) {
            bitmap_reads(map.storageAddrOfBit(bit));
            last = byte;
        }
    };

    std::uint64_t beg_idx = start_bit;
    while (beg_idx < end_bit) {
        touch(beg, beg_idx, last_beg_byte);
        if (beg.testBit(beg_idx)) {
            std::uint64_t end_idx = beg_idx;
            bool found = false;
            while (end_idx < end_bit) {
                touch(end, end_idx, last_end_byte);
                if (end.testBit(end_idx)) {
                    count += end_idx - beg_idx + 1;
                    beg_idx = end_idx;
                    found = true;
                    break;
                }
                ++end_idx;
            }
            if (!found)
                break; // object extends past the range: contributes 0
        }
        ++beg_idx;
    }
    return count;
}

} // namespace charon::heap
