/**
 * @file
 * Tests for the set-associative cache model (bitmap cache substrate).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <vector>

#include "mem/cache_model.hh"
#include "sim/rng.hh"

using charon::mem::Addr;
using charon::mem::CacheModel;

namespace
{

/**
 * Plain true-LRU reference: one most-recent-first list per set, set
 * and tag found by division.
 */
class ReferenceLru
{
  public:
    ReferenceLru(std::uint64_t size_bytes, int assoc, int block_bytes)
        : assoc_(static_cast<std::size_t>(assoc)),
          block_(static_cast<std::uint64_t>(block_bytes)),
          sets_(size_bytes / (assoc_ * block_))
    {
    }

    bool
    access(Addr addr, bool write)
    {
        auto &set = sets_[addr / block_ % sets_.size()];
        const Addr tag = addr / block_ / sets_.size();
        auto it = std::find_if(set.begin(), set.end(),
                               [&](const Line &l) { return l.tag == tag; });
        if (it != set.end()) {
            ++hits;
            Line line{tag, it->dirty || write};
            set.erase(it);
            set.push_front(line);
            return true;
        }
        ++misses;
        if (set.size() == assoc_) {
            writebacks += set.back().dirty ? 1 : 0;
            set.pop_back();
        }
        set.push_front(Line{tag, write});
        return false;
    }

    bool
    contains(Addr addr) const
    {
        const auto &set = sets_[addr / block_ % sets_.size()];
        const Addr tag = addr / block_ / sets_.size();
        return std::any_of(set.begin(), set.end(),
                           [&](const Line &l) { return l.tag == tag; });
    }

    std::uint64_t
    flush()
    {
        std::uint64_t dirty = 0;
        for (auto &set : sets_) {
            for (const Line &l : set)
                dirty += l.dirty ? 1 : 0;
            set.clear();
        }
        writebacks += dirty;
        return dirty;
    }

    std::uint64_t hits = 0, misses = 0, writebacks = 0;

  private:
    struct Line
    {
        Addr tag;
        bool dirty;
    };

    std::size_t assoc_;
    std::uint64_t block_;
    std::vector<std::list<Line>> sets_;
};

} // namespace

TEST(CacheModel, FirstAccessMissesThenHits)
{
    CacheModel c(8 * 1024, 8, 32);
    EXPECT_FALSE(c.access(0x1000, false));
    EXPECT_TRUE(c.access(0x1000, false));
    EXPECT_TRUE(c.access(0x101f, false)); // same 32 B block
    EXPECT_FALSE(c.access(0x1020, false)); // next block
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(CacheModel, GeometryMatchesConfiguration)
{
    CacheModel c(8 * 1024, 8, 32);
    EXPECT_EQ(c.sets(), 32u); // 8KB / (8 * 32B)
    EXPECT_EQ(c.blockBytes(), 32);
}

TEST(CacheModel, LruEvictsOldest)
{
    // Direct-mapped-ish: 2-way, tiny.
    CacheModel c(4 * 32 * 2, 2, 32); // 4 sets, 2 ways
    // Three blocks mapping to set 0: block addresses 0, 4*32, 8*32.
    c.access(0, false);
    c.access(4 * 32, false);
    c.access(0, false);      // touch block 0 -> LRU is 4*32
    c.access(8 * 32, false); // evicts 4*32
    EXPECT_TRUE(c.contains(0));
    EXPECT_FALSE(c.contains(4 * 32));
    EXPECT_TRUE(c.contains(8 * 32));
}

TEST(CacheModel, ContainsDoesNotAllocate)
{
    CacheModel c(1024, 2, 32);
    EXPECT_FALSE(c.contains(0x40));
    EXPECT_FALSE(c.contains(0x40));
    EXPECT_EQ(c.misses(), 0u); // probes don't count
}

TEST(CacheModel, WritebacksCountDirtyEvictions)
{
    CacheModel c(2 * 32, 1, 32); // 2 sets, direct mapped
    c.access(0, true);           // dirty fill set 0
    c.access(2 * 32, true);      // same set, evicts dirty -> writeback
    EXPECT_EQ(c.writebacks(), 1u);
    c.access(4 * 32, false);     // evicts dirty line again
    EXPECT_EQ(c.writebacks(), 2u);
    c.access(6 * 32, false);     // evicts clean line
    EXPECT_EQ(c.writebacks(), 2u);
}

TEST(CacheModel, FlushWritesBackDirtyLines)
{
    CacheModel c(8 * 1024, 8, 32);
    c.access(0, true);
    c.access(32, false);
    c.access(64, true);
    EXPECT_EQ(c.flush(), 2u);
    EXPECT_FALSE(c.contains(0));
    EXPECT_FALSE(c.contains(32));
}

TEST(CacheModel, HitRateComputation)
{
    CacheModel c(8 * 1024, 8, 32);
    EXPECT_DOUBLE_EQ(c.hitRate(), 0.0);
    c.access(0, false);
    c.access(0, false);
    c.access(0, false);
    c.access(0, false);
    EXPECT_DOUBLE_EQ(c.hitRate(), 0.75);
    c.resetStats();
    EXPECT_EQ(c.hits() + c.misses(), 0u);
}

TEST(CacheModel, SmallWorkingSetFitsEntirely)
{
    CacheModel c(8 * 1024, 8, 32);
    // 4 KB working set < 8 KB cache: second pass must be all hits.
    for (int pass = 0; pass < 2; ++pass) {
        for (std::uint64_t a = 0; a < 4096; a += 32)
            c.access(a, false);
    }
    EXPECT_EQ(c.misses(), 128u);
    EXPECT_EQ(c.hits(), 128u);
}

TEST(CacheModel, ThrashingWorkingSetMisses)
{
    CacheModel c(1024, 1, 32); // 32 sets direct-mapped
    // Two blocks per set, round-robin: always miss after warmup.
    for (int pass = 0; pass < 4; ++pass) {
        for (std::uint64_t a = 0; a < 2048; a += 32)
            c.access(a, false);
    }
    EXPECT_EQ(c.hits(), 0u);
}

TEST(CacheModel, MatchesReferenceLruOnRandomStreams)
{
    // Every geometry the simulator and these tests build.
    struct Geometry
    {
        std::uint64_t bytes;
        int assoc;
        int block;
    };
    const Geometry geometries[] = {
        {8 * 1024, 8, 32}, // the Section 4.5 bitmap cache
        {4 * 32 * 2, 2, 32},
        {1024, 2, 32},
        {2 * 32, 1, 32},
        {1024, 1, 32},
    };
    charon::sim::Rng rng(4242);
    for (const Geometry &g : geometries) {
        CacheModel model(g.bytes, g.assoc, g.block);
        ReferenceLru ref(g.bytes, g.assoc, g.block);
        // A footprint of four capacities keeps every set evicting;
        // a few addresses near the top of the address space check
        // that no tag collides with the invalid-way sentinel.
        const std::uint64_t span = 4 * g.bytes;
        for (int i = 0; i < 20000; ++i) {
            Addr addr = rng.chance(0.01) ? ~Addr{0} - rng.below(span)
                                         : rng.below(span);
            bool write = rng.chance(0.3);
            ASSERT_EQ(model.access(addr, write), ref.access(addr, write))
                << g.bytes << "/" << g.assoc << " access " << i;
            Addr probe = rng.below(span);
            ASSERT_EQ(model.contains(probe), ref.contains(probe))
                << g.bytes << "/" << g.assoc << " probe " << i;
            if (i % 997 == 996) {
                ASSERT_EQ(model.flush(), ref.flush()) << "flush " << i;
            }
            ASSERT_EQ(model.hits(), ref.hits);
            ASSERT_EQ(model.misses(), ref.misses);
            ASSERT_EQ(model.writebacks(), ref.writebacks);
        }
    }
}

TEST(CacheModel, NonPowerOfTwoSetCountPanics)
{
    // 3 sets of 8 ways x 32 B: the set index is a mask, so 3 is refused.
    EXPECT_DEATH(CacheModel(3 * 8 * 32, 8, 32), "power of two");
}
