/**
 * @file
 * A functional set-associative cache model with LRU replacement.
 *
 * Used for Charon's bitmap cache (8 KB, 8-way, 32 B blocks,
 * write-back — Section 4.5) and reusable for any structure that needs
 * hit/miss accounting over an access stream.  Purely functional: it
 * tracks tags and dirty bits, not data.
 */

#ifndef CHARON_MEM_CACHE_MODEL_HH
#define CHARON_MEM_CACHE_MODEL_HH

#include <cstdint>
#include <vector>

#include "mem/addr.hh"

namespace charon::mem
{

/**
 * Tag-only set-associative cache with true-LRU replacement.  The set
 * count is a power of two, so the set and the tag of an address are
 * a mask and a shift of its block number.
 */
class CacheModel
{
  public:
    /**
     * @param size_bytes total capacity
     * @param assoc ways per set
     * @param block_bytes line size (power of two)
     * Capacity / (assoc x block_bytes) must be a power of two.
     */
    CacheModel(std::uint64_t size_bytes, int assoc, int block_bytes);

    /**
     * Access @p addr; allocate on miss.
     * @param write marks the line dirty on hit/fill
     * @retval true hit
     */
    bool access(Addr addr, bool write);

    /** Probe without allocating or updating LRU. */
    bool contains(Addr addr) const;

    /**
     * Invalidate everything.
     * @return number of dirty lines written back
     */
    std::uint64_t flush();

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t writebacks() const { return writebacks_; }

    double
    hitRate() const
    {
        std::uint64_t total = hits_ + misses_;
        return total ? static_cast<double>(hits_)
                           / static_cast<double>(total)
                     : 0.0;
    }

    void
    resetStats()
    {
        hits_ = 0;
        misses_ = 0;
        writebacks_ = 0;
    }

    int blockBytes() const { return blockBytes_; }
    std::uint64_t sets() const { return numSets_; }

  private:
    /** Tag of an invalid way; no block number shifts down to it. */
    static constexpr Addr kInvalidTag = ~Addr{0};

    /** Way index (set x assoc + way) holding @p tag, or -1. */
    std::int64_t findWay(Addr tag, std::uint64_t set) const;

    int assoc_;
    int blockBytes_;
    std::uint64_t numSets_;
    int blockShift_ = 0;
    int setShift_ = 0;
    std::uint64_t lruClock_ = 0;
    // numSets x assoc ways, each set's ways contiguous.
    std::vector<Addr> tags_;          // kInvalidTag when not valid
    std::vector<std::uint64_t> lru_;  // higher == more recent
    std::vector<std::uint8_t> dirty_;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
};

} // namespace charon::mem

#endif // CHARON_MEM_CACHE_MODEL_HH
