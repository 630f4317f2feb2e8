#include "cache_model.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace charon::mem
{

CacheModel::CacheModel(std::uint64_t size_bytes, int assoc,
                       int block_bytes)
    : assoc_(assoc), blockBytes_(block_bytes)
{
    CHARON_ASSERT(isPow2(static_cast<std::uint64_t>(block_bytes)),
                  "block size must be a power of two");
    CHARON_ASSERT(size_bytes
                          % (static_cast<std::uint64_t>(assoc)
                             * static_cast<std::uint64_t>(block_bytes))
                      == 0,
                  "capacity must divide into sets");
    numSets_ = size_bytes
               / (static_cast<std::uint64_t>(assoc)
                  * static_cast<std::uint64_t>(block_bytes));
    CHARON_ASSERT(numSets_ >= 1, "cache needs at least one set");
    CHARON_ASSERT(isPow2(numSets_),
                  "set count %llu must be a power of two",
                  static_cast<unsigned long long>(numSets_));
    blockShift_ = std::countr_zero(static_cast<std::uint64_t>(block_bytes));
    setShift_ = std::countr_zero(numSets_);
    // A tag is the address shifted right by both, so with at least
    // one bit shifted out no tag equals kInvalidTag.
    CHARON_ASSERT(blockShift_ + setShift_ > 0,
                  "one-byte blocks need more than one set");
    const std::uint64_t ways = numSets_ * static_cast<std::uint64_t>(assoc);
    tags_.assign(ways, kInvalidTag);
    lru_.assign(ways, 0);
    dirty_.assign(ways, 0);
}

std::int64_t
CacheModel::findWay(Addr tag, std::uint64_t set) const
{
    const std::uint64_t base = set * static_cast<std::uint64_t>(assoc_);
    for (std::uint64_t w = base; w < base + static_cast<std::uint64_t>(assoc_);
         ++w) {
        if (tags_[w] == tag)
            return static_cast<std::int64_t>(w);
    }
    return -1;
}

bool
CacheModel::access(Addr addr, bool write)
{
    const Addr block = addr >> blockShift_;
    const std::uint64_t set = block & (numSets_ - 1);
    const Addr tag = block >> setShift_;
    if (std::int64_t way = findWay(tag, set); way >= 0) {
        ++hits_;
        lru_[static_cast<std::uint64_t>(way)] = ++lruClock_;
        dirty_[static_cast<std::uint64_t>(way)] |= write;
        return true;
    }
    ++misses_;
    // Fill: start from way 0; the first invalid later way, else any
    // way with an older stamp, replaces it.  An invalid way's stamp
    // predates every valid one, so an invalid way always wins over a
    // valid one, and among valid ways the least recent is evicted.
    const std::uint64_t base = set * static_cast<std::uint64_t>(assoc_);
    std::uint64_t victim = base;
    for (std::uint64_t w = base + 1;
         w < base + static_cast<std::uint64_t>(assoc_); ++w) {
        if (tags_[w] == kInvalidTag) {
            victim = w;
            break;
        }
        if (lru_[w] < lru_[victim])
            victim = w;
    }
    if (tags_[victim] != kInvalidTag && dirty_[victim])
        ++writebacks_;
    tags_[victim] = tag;
    dirty_[victim] = write;
    lru_[victim] = ++lruClock_;
    return false;
}

bool
CacheModel::contains(Addr addr) const
{
    const Addr block = addr >> blockShift_;
    return findWay(block >> setShift_, block & (numSets_ - 1)) >= 0;
}

std::uint64_t
CacheModel::flush()
{
    std::uint64_t dirty = 0;
    for (std::size_t w = 0; w < tags_.size(); ++w) {
        if (tags_[w] != kInvalidTag && dirty_[w])
            ++dirty;
    }
    std::fill(tags_.begin(), tags_.end(), kInvalidTag);
    std::fill(dirty_.begin(), dirty_.end(), 0);
    writebacks_ += dirty;
    return dirty;
}

} // namespace charon::mem
