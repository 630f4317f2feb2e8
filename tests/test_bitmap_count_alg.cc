/**
 * @file
 * Tests for Charon's optimized Bitmap Count algorithm (Section 4.3):
 * exact equivalence with the Figure 8 software reference, including
 * the corner cases where begin/end bit counts differ inside the
 * range, the [region start, live object) ranges the mark-compact
 * collector records, and the one-word [block start, live object)
 * ranges it computes destinations over.
 */

#include <gtest/gtest.h>

#include <vector>

#include "heap/bitmap.hh"
#include "sim/rng.hh"

using namespace charon;
using heap::liveWordsInRange;
using heap::optimizedLiveWords;
using heap::MarkBitmap;

namespace
{

constexpr mem::Addr kBase = 0x10000;
constexpr std::uint64_t kBytes = 512 * 1024;

struct Maps
{
    MarkBitmap beg{kBase, kBytes, 0};
    MarkBitmap end{kBase, kBytes, 0};

    void
    paint(std::uint64_t beg_bit, std::uint64_t words)
    {
        beg.setBit(beg_bit);
        end.setBit(beg_bit + words - 1);
    }
};

} // namespace

TEST(OptimizedBitmapCount, SingleObject)
{
    Maps m;
    m.paint(10, 5);
    EXPECT_EQ(optimizedLiveWords(m.beg, m.end, 0, 100), 5u);
}

TEST(OptimizedBitmapCount, OneWordObject)
{
    Maps m;
    m.paint(42, 1);
    EXPECT_EQ(optimizedLiveWords(m.beg, m.end, 0, 100), 1u);
}

TEST(OptimizedBitmapCount, MultipleObjects)
{
    Maps m;
    m.paint(0, 3);
    m.paint(10, 7);
    m.paint(50, 1);
    EXPECT_EQ(optimizedLiveWords(m.beg, m.end, 0, 100), 11u);
}

TEST(OptimizedBitmapCount, EmptyRange)
{
    Maps m;
    m.paint(10, 5);
    EXPECT_EQ(optimizedLiveWords(m.beg, m.end, 50, 50), 0u);
    EXPECT_EQ(optimizedLiveWords(m.beg, m.end, 60, 50), 0u);
}

TEST(OptimizedBitmapCount, PaperFigure9Example)
{
    // Figure 9: three objects; subtracting the maps yields all ones
    // between the paired bits, then one per object is added back.
    Maps m;
    m.paint(1, 3);  // bits 1..3
    m.paint(6, 2);  // bits 6..7
    m.paint(11, 4); // bits 11..14
    EXPECT_EQ(optimizedLiveWords(m.beg, m.end, 0, 16), 9u);
}

TEST(OptimizedBitmapCount, CornerLeadingEndBit)
{
    // Range starts inside an object: its dangling end bit must not
    // contribute.
    Maps m;
    m.paint(10, 10); // bits 10..19
    m.paint(30, 5);
    EXPECT_EQ(optimizedLiveWords(m.beg, m.end, 15, 100), 5u);
    EXPECT_EQ(optimizedLiveWords(m.beg, m.end, 15, 100),
              liveWordsInRange(m.beg, m.end, 15, 100));
}

TEST(OptimizedBitmapCount, CornerTrailingBeginBit)
{
    // An object starting inside but ending beyond the range counts
    // as zero (Figure 8 semantics).
    Maps m;
    m.paint(90, 20); // bits 90..109
    EXPECT_EQ(optimizedLiveWords(m.beg, m.end, 0, 100), 0u);
    EXPECT_EQ(optimizedLiveWords(m.beg, m.end, 0, 100),
              liveWordsInRange(m.beg, m.end, 0, 100));
}

TEST(OptimizedBitmapCount, CornerBothEndsCut)
{
    Maps m;
    m.paint(10, 10);  // cut at range start
    m.paint(30, 5);   // fully inside
    m.paint(90, 20);  // cut at range end
    EXPECT_EQ(optimizedLiveWords(m.beg, m.end, 15, 100), 5u);
}

TEST(OptimizedBitmapCount, RangeInsideOneObject)
{
    Maps m;
    m.paint(10, 100); // bits 10..109
    EXPECT_EQ(optimizedLiveWords(m.beg, m.end, 20, 80), 0u);
}

TEST(OptimizedBitmapCount, WordBoundaryStraddles)
{
    Maps m;
    m.paint(60, 10); // crosses the bit-63/64 word boundary
    m.paint(126, 4); // crosses 127/128
    EXPECT_EQ(optimizedLiveWords(m.beg, m.end, 0, 256), 14u);
    EXPECT_EQ(optimizedLiveWords(m.beg, m.end, 60, 70), 10u);
}

TEST(OptimizedBitmapCount, UnalignedRangeEdges)
{
    Maps m;
    m.paint(5, 3);
    m.paint(65, 3);
    m.paint(130, 3);
    for (std::uint64_t s = 0; s <= 5; ++s) {
        EXPECT_EQ(optimizedLiveWords(m.beg, m.end, s, 200),
                  liveWordsInRange(m.beg, m.end, s, 200))
            << "start " << s;
    }
}

TEST(OptimizedBitmapCount, PropertyMatchesReferenceOnRandomHeaps)
{
    // Compaction regions are 256 words (2 KiB); the collector counts
    // over [region start, begin bit of a live object).
    constexpr std::uint64_t kRegionWords = 256;
    sim::Rng rng(777);
    sim::Rng pick(778); // own stream: rng alone draws heaps and ranges
    for (int round = 0; round < 200; ++round) {
        Maps m;
        std::vector<std::uint64_t> begins;
        std::uint64_t bit = rng.below(16);
        std::uint64_t limit = 2000 + rng.below(2000);
        while (bit + 70 < limit) {
            std::uint64_t words = rng.chance(0.2)
                                      ? rng.range(1, 64)
                                      : rng.range(1, 8);
            if (rng.chance(0.8)) {
                m.paint(bit, words);
                begins.push_back(bit);
            }
            bit += words + rng.below(6);
        }
        // Arbitrary ranges, including ones that cut objects.
        for (int q = 0; q < 20; ++q) {
            std::uint64_t a = rng.below(limit);
            std::uint64_t b = a + rng.below(limit - a + 1);
            EXPECT_EQ(optimizedLiveWords(m.beg, m.end, a, b),
                      liveWordsInRange(m.beg, m.end, a, b))
                << "round " << round << " range [" << a << "," << b
                << ")";
        }
        // Compaction ranges: a region boundary up to a begin bit.
        for (int q = 0; q < 20 && !begins.empty(); ++q) {
            std::uint64_t b = begins[pick.below(begins.size())];
            std::uint64_t a = b / kRegionWords * kRegionWords;
            EXPECT_EQ(optimizedLiveWords(m.beg, m.end, a, b),
                      liveWordsInRange(m.beg, m.end, a, b))
                << "round " << round << " range [" << a << "," << b
                << ")";
        }
    }
}

TEST(OptimizedBitmapCount, OneWordRangesMatchReference)
{
    // Ranges inside one 64-bit storage word, as the collector's
    // destination counts are.  Random layouts with many one-word
    // objects; arbitrary ranges within a word, which cut objects at
    // either end, and the collector's ranges from a 64-word block
    // start to a begin bit.
    sim::Rng rng(4242);
    struct Obj
    {
        std::uint64_t first, last;
    };
    std::uint64_t one_word = 0, leading_end = 0, trailing_begin = 0,
                  from_block = 0;
    for (int round = 0; round < 200; ++round) {
        Maps m;
        std::vector<Obj> objs;
        std::uint64_t bit = rng.below(8);
        const std::uint64_t limit = 1024 + rng.below(1024);
        while (true) {
            std::uint64_t words = rng.chance(0.4)   ? 1
                                  : rng.chance(0.2) ? rng.range(2, 100)
                                                    : rng.range(2, 8);
            if (bit + words > limit)
                break;
            if (rng.chance(0.8)) {
                m.paint(bit, words);
                objs.push_back({bit, bit + words - 1});
            }
            bit += words + rng.below(4);
        }
        auto check = [&](std::uint64_t a, std::uint64_t b) {
            ASSERT_EQ(a >> 6, (b - 1) >> 6);
            EXPECT_EQ(optimizedLiveWords(m.beg, m.end, a, b),
                      liveWordsInRange(m.beg, m.end, a, b))
                << "round " << round << " range [" << a << "," << b
                << ")";
            for (const Obj &o : objs) {
                one_word += o.first == o.last && o.first >= a
                            && o.first < b;
                leading_end += o.first < a && o.last >= a && o.last < b;
                trailing_begin += o.first >= a && o.first < b
                                  && o.last >= b;
            }
        };
        for (int q = 0; q < 40; ++q) {
            const std::uint64_t a = rng.below(limit);
            check(a, a + 1 + rng.below(64 - (a & 63)));
        }
        for (const Obj &o : objs) {
            if (o.first & 63) {
                check(o.first & ~63ull, o.first);
                ++from_block;
            }
        }
    }
    EXPECT_GT(one_word, 0u);
    EXPECT_GT(leading_end, 0u);
    EXPECT_GT(trailing_begin, 0u);
    EXPECT_GT(from_block, 0u);
}
