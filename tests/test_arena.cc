/**
 * @file
 * Direct tests for the shared ObjectArena object model (also
 * exercised transitively through both heap shapes).
 */

#include <gtest/gtest.h>

#include "heap/arena.hh"

using namespace charon;
using heap::KlassTable;
using heap::ObjectArena;
using mem::Addr;

namespace
{

constexpr Addr kBase = 0x20000;
constexpr std::uint64_t kBytes = 1 << 20;

} // namespace

class ArenaTest : public ::testing::Test
{
  protected:
    ArenaTest() : arena(kBase, kBytes, klasses)
    {
        nodeId = klasses.defineInstance("Node", 2, 2);
    }

    KlassTable klasses;
    heap::KlassId nodeId = 0;
    ObjectArena arena;
};

TEST_F(ArenaTest, ContainsBounds)
{
    EXPECT_TRUE(arena.contains(kBase));
    EXPECT_TRUE(arena.contains(kBase + kBytes - 1));
    EXPECT_FALSE(arena.contains(kBase - 1));
    EXPECT_FALSE(arena.contains(kBase + kBytes));
    EXPECT_FALSE(arena.contains(0));
}

TEST_F(ArenaTest, LoadStoreRoundTrip)
{
    arena.store64(kBase + 64, 0xdeadbeefull);
    EXPECT_EQ(arena.load64(kBase + 64), 0xdeadbeefull);
}

TEST_F(ArenaTest, OutOfBoundsAccessPanics)
{
    EXPECT_DEATH(arena.load64(kBase + kBytes), "out of bounds");
    EXPECT_DEATH(arena.store64(kBase - 8, 1), "out of bounds");
    // The first byte is inside; the rest of the word is not.
    EXPECT_DEATH(arena.load64(kBase + kBytes - 4), "out of bounds");
    EXPECT_DEATH(arena.store64(kBase + kBytes - 1, 1), "out of bounds");
}

TEST_F(ArenaTest, HeaderRoundTrip)
{
    Addr obj = kBase + 128;
    arena.writeHeader(obj, nodeId, arena.sizeWordsFor(nodeId, 0), 0);
    EXPECT_EQ(arena.klassOf(obj), nodeId);
    EXPECT_EQ(arena.sizeWords(obj), 6u);
    EXPECT_EQ(arena.refCount(obj), 2u);
    EXPECT_EQ(arena.refAt(obj, 0), 0u);
    EXPECT_EQ(arena.refAt(obj, 1), 0u);
}

TEST_F(ArenaTest, ObjArrayHeaderNullsElements)
{
    Addr obj = kBase;
    arena.store64(obj + 24, ~0ull); // pre-dirty an element slot
    arena.writeHeader(obj, klasses.objArrayId(),
                      arena.sizeWordsFor(klasses.objArrayId(), 4), 4);
    EXPECT_EQ(arena.arrayLength(obj), 4u);
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(arena.refAt(obj, i), 0u);
}

TEST_F(ArenaTest, CopyBytesOverlappingLeftward)
{
    for (int i = 0; i < 16; ++i)
        arena.store64(kBase + 256 + 8 * i, 100 + i);
    // Slide 128 bytes left by 64: overlapping leftward memmove.
    arena.copyBytes(kBase + 192, kBase + 256, 128);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(arena.load64(kBase + 192 + 8 * i),
                  static_cast<std::uint64_t>(100 + i));
}

TEST_F(ArenaTest, ForwardingAndAgeCoexist)
{
    Addr obj = kBase + 512;
    arena.writeHeader(obj, nodeId, 6, 0);
    arena.setAge(obj, 5);
    arena.setForwarding(obj, kBase + 1024);
    EXPECT_TRUE(arena.isForwarded(obj));
    EXPECT_EQ(arena.forwardee(obj), kBase + 1024);
    EXPECT_EQ(arena.age(obj), 5);
}

TEST_F(ArenaTest, ForwardeeOfUnforwardedPanics)
{
    Addr obj = kBase;
    arena.writeHeader(obj, nodeId, 6, 0);
    EXPECT_DEATH(arena.forwardee(obj), "unforwarded");
}

TEST_F(ArenaTest, SizeWordsForEveryBuiltinKind)
{
    EXPECT_EQ(arena.sizeWordsFor(klasses.byteArrayId(), 9), 3u + 2u);
    EXPECT_EQ(arena.sizeWordsFor(klasses.intArrayId(), 9), 3u + 5u);
    EXPECT_EQ(arena.sizeWordsFor(klasses.longArrayId(), 9), 3u + 9u);
    EXPECT_EQ(arena.sizeWordsFor(klasses.objArrayId(), 9), 3u + 9u);
    EXPECT_EQ(arena.sizeWordsFor(klasses.fillerId(), 0), 2u);
}

TEST(ArenaStorage, FreshBytesReadZeroUntilWritten)
{
    // Not a whole number of huge pages, so the mapping runs past the
    // arena's last word.
    constexpr std::uint64_t bytes = (5ull << 20) + 24;
    KlassTable klasses;
    ObjectArena arena(kBase, bytes, klasses);
    const Addr last = kBase + bytes - 8;
    for (Addr a = kBase; a < last; a += 8 * 4099)
        EXPECT_EQ(arena.load64(a), 0u) << std::hex << a;
    EXPECT_EQ(arena.load64(last), 0u);

    arena.store64(last, 42);
    EXPECT_EQ(arena.load64(last), 42u);
    EXPECT_EQ(arena.load64(last - 8), 0u);
}

TEST(ArenaStorage, UntouchedPagesAreNotResident)
{
    constexpr std::uint64_t bytes = 64ull << 20;
    KlassTable klasses;
    heap::KlassId node = klasses.defineInstance("Node", 2, 2);
    ObjectArena arena(kBase, bytes, klasses);
    EXPECT_EQ(arena.residentBytes(), 0u);

    arena.writeHeader(kBase + bytes / 2, node,
                      arena.sizeWordsFor(node, 0), 0);
    // One header faults in one page: a 4 KiB one, or a 2 MiB one
    // where transparent huge pages are on.
    EXPECT_GT(arena.residentBytes(), 0u);
    EXPECT_LE(arena.residentBytes(), 2ull << 20);
}
