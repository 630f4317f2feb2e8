/**
 * @file
 * Tests for the card table / Search substrate.
 */

#include <gtest/gtest.h>

#include <random>

#include "heap/card_table.hh"

using charon::heap::CardTable;
using charon::mem::Addr;

TEST(CardTable, CardsStartClean)
{
    CardTable ct(0x10000, 64 * 1024, 0x900000);
    for (std::uint64_t i = 0; i < ct.numCards(); ++i)
        EXPECT_FALSE(ct.isDirty(i));
}

TEST(CardTable, OneBytePer512Bytes)
{
    CardTable ct(0x10000, 64 * 1024, 0);
    EXPECT_EQ(ct.numCards(), 128u);
    EXPECT_EQ(ct.storageBytes(), 128u);
}

TEST(CardTable, DirtyByAddress)
{
    CardTable ct(0x10000, 64 * 1024, 0);
    ct.dirty(0x10000 + 512 * 3 + 17);
    EXPECT_TRUE(ct.isDirty(3));
    EXPECT_FALSE(ct.isDirty(2));
    EXPECT_FALSE(ct.isDirty(4));
}

TEST(CardTable, CardIndexAndStartRoundTrip)
{
    CardTable ct(0x10000, 64 * 1024, 0);
    EXPECT_EQ(ct.cardIndex(0x10000), 0u);
    EXPECT_EQ(ct.cardIndex(0x10000 + 511), 0u);
    EXPECT_EQ(ct.cardIndex(0x10000 + 512), 1u);
    EXPECT_EQ(ct.cardStart(1), 0x10000u + 512);
}

TEST(CardTable, FindDirtyScansRange)
{
    CardTable ct(0x10000, 64 * 1024, 0);
    ct.dirtyCard(10);
    ct.dirtyCard(20);
    EXPECT_EQ(ct.findDirty(0, 128), 10u);
    EXPECT_EQ(ct.findDirty(11, 128), 20u);
    EXPECT_EQ(ct.findDirty(21, 128), 128u);
    EXPECT_EQ(ct.findDirty(0, 10), 10u); // limit exclusive: none found
}

TEST(CardTable, FindDirtyMatchesByteScan)
{
    // The word-at-a-time scan against a byte-by-byte reference, over
    // unaligned ranges and every non-clean byte value.
    CardTable ct(0x10000, 300 * 512, 0);
    const std::uint64_t n = ct.numCards();
    std::mt19937_64 rng(12);
    for (int round = 0; round < 200; ++round) {
        ct.cleanAll();
        const int dirty = static_cast<int>(rng() % 6);
        for (int d = 0; d < dirty; ++d)
            ct.xorByte(rng() % n, static_cast<std::uint8_t>(1 + rng() % 255));
        for (int q = 0; q < 50; ++q) {
            std::uint64_t from = rng() % (n + 1);
            std::uint64_t limit = from + rng() % (n + 1 - from);
            std::uint64_t want = from;
            while (want < limit && !ct.isDirty(want))
                ++want;
            ASSERT_EQ(ct.findDirty(from, limit), want)
                << "round " << round << " [" << from << ", " << limit
                << ")";
        }
    }
}

TEST(CardTable, CleanAllResets)
{
    CardTable ct(0x10000, 64 * 1024, 0);
    ct.dirtyCard(5);
    ct.cleanAll();
    EXPECT_EQ(ct.findDirty(0, ct.numCards()), ct.numCards());
}

TEST(CardTable, CleanEncodingIsMinusOne)
{
    // HotSpot encodes clean as 0xFF, which is why the paper's Search
    // pseudocode tests `*i != -1`.
    EXPECT_EQ(CardTable::kClean, 0xFF);
}

TEST(CardTable, StorageAddrIsContiguous)
{
    CardTable ct(0x10000, 64 * 1024, 0x900000);
    EXPECT_EQ(ct.storageAddr(0), 0x900000u);
    EXPECT_EQ(ct.storageAddr(127), 0x900000u + 127);
}
