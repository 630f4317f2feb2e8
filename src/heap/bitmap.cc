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

std::uint64_t
optimizedLiveWords(const MarkBitmap &beg, const MarkBitmap &end,
                   std::uint64_t start_bit, std::uint64_t end_bit)
{
    if (end_bit <= start_bit)
        return 0;
    CHARON_ASSERT(end_bit <= beg.numBits(), "range beyond bitmap");

    // Storage word i of either map, masked to the range: bits below
    // start_bit in the first word and at/after end_bit in the last.
    const std::uint64_t first_word = start_bit >> 6;
    const std::uint64_t last_word = (end_bit - 1) >> 6;
    const std::uint64_t lo_mask = ~0ull << (start_bit & 63);
    const std::uint64_t hi_mask = ~0ull >> ((64 - (end_bit & 63)) & 63);
    auto masked = [&](const MarkBitmap &map, std::uint64_t i) {
        std::uint64_t w = map.word(i);
        if (i == first_word)
            w &= lo_mask;
        if (i == last_word)
            w &= hi_mask;
        return w;
    };

    // Corner case 2: an object starts in range but ends beyond it —
    // the highest set bit overall belongs to the begin map only.
    // Drop it: the reference counts such objects as zero words.
    // Words above the highest one with a set bit add nothing, so the
    // count below stops there and reuses that word pair.
    std::uint64_t top_word = last_word;
    std::uint64_t top_b = masked(beg, top_word);
    std::uint64_t top_e = masked(end, top_word);
    while ((top_b | top_e) == 0) {
        if (top_word == first_word)
            return 0;
        --top_word;
        top_b = masked(beg, top_word);
        top_e = masked(end, top_word);
    }
    const std::uint64_t top = 1ull << (63 - std::countl_zero(top_b | top_e));
    if ((top_b & top) && !(top_e & top))
        top_b &= ~top;

    // count = popcount(E - B) + popcount(B), computed word-wise with
    // borrow propagation from the least-significant word upward —
    // one (word-pair) per cycle in hardware.
    std::uint64_t count = 0;
    std::uint64_t borrow = 0;
    bool seen_bit = false;
    for (std::uint64_t i = first_word; i <= top_word; ++i) {
        std::uint64_t b = i == top_word ? top_b : masked(beg, i);
        std::uint64_t e = i == top_word ? top_e : masked(end, i);
        // Corner case 1: the range starts inside an object — the
        // lowest set bit overall belongs to the end map only.  Drop
        // it: the reference algorithm never pairs it.
        if (!seen_bit && (b | e) != 0) {
            seen_bit = true;
            std::uint64_t low = (b | e) & (~(b | e) + 1);
            if (!(b & low))
                e &= ~low;
        }
        std::uint64_t d1 = e - b;
        std::uint64_t borrow1 = e < b ? 1u : 0u;
        std::uint64_t d = d1 - borrow;
        std::uint64_t borrow2 = d1 < borrow ? 1u : 0u;
        borrow = borrow1 | borrow2;
        count += static_cast<std::uint64_t>(std::popcount(d));
        count += static_cast<std::uint64_t>(std::popcount(b));
    }
    CHARON_ASSERT(borrow == 0,
                  "unbalanced begin/end bits after corner handling");
    return count;
}

} // namespace charon::heap
