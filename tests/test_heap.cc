/**
 * @file
 * Tests for the managed heap: geometry, allocation, object access,
 * forwarding, card marking, and iteration.
 */

#include <gtest/gtest.h>

#include "heap/heap.hh"

using namespace charon;
using namespace charon::heap;

class HeapTest : public ::testing::Test
{
  protected:
    HeapTest()
    {
        nodeId = klasses.defineInstance("Node", 2, 2);
        blobId = klasses.defineInstance("Blob", 0, 6);
        cfg.heapBytes = 16 * sim::kMiB;
        heap = std::make_unique<ManagedHeap>(cfg, klasses);
    }

    KlassTable klasses;
    KlassId nodeId = 0, blobId = 0;
    HeapConfig cfg;
    std::unique_ptr<ManagedHeap> heap;
};

TEST_F(HeapTest, GeometryCoversWholeHeap)
{
    auto &old_r = heap->region(Space::Old);
    auto &eden = heap->region(Space::Eden);
    auto &from = heap->region(Space::From);
    auto &to = heap->region(Space::To);
    EXPECT_EQ(old_r.start, cfg.base);
    EXPECT_EQ(old_r.end, eden.start);
    EXPECT_EQ(eden.end, from.start);
    EXPECT_EQ(from.end, to.start);
    EXPECT_EQ(old_r.capacity() + eden.capacity() + from.capacity()
                  + to.capacity(),
              cfg.heapBytes);
    // Young:Old roughly 1:2, Eden:Survivor roughly 8:1.
    double young = static_cast<double>(eden.capacity() + from.capacity()
                                       + to.capacity());
    EXPECT_NEAR(young / cfg.heapBytes, 1.0 / 3.0, 0.01);
    EXPECT_NEAR(static_cast<double>(eden.capacity())
                    / static_cast<double>(from.capacity()),
                8.0, 0.5);
}

TEST_F(HeapTest, SpaceOfClassifiesAddresses)
{
    EXPECT_EQ(heap->spaceOf(cfg.base), Space::Old);
    EXPECT_EQ(heap->spaceOf(heap->region(Space::Eden).start), Space::Eden);
    EXPECT_EQ(heap->spaceOf(heap->region(Space::To).end - 1), Space::To);
    EXPECT_EQ(heap->spaceOf(0), Space::None);
    EXPECT_EQ(heap->spaceOf(heap->region(Space::To).end), Space::None);
}

TEST_F(HeapTest, AllocEdenWritesHeader)
{
    mem::Addr obj = heap->allocEden(nodeId);
    ASSERT_NE(obj, 0u);
    EXPECT_EQ(heap->klassOf(obj), nodeId);
    EXPECT_EQ(heap->sizeWords(obj), 6u); // 2 hdr + 2 refs + 2 payload
    EXPECT_EQ(heap->spaceOf(obj), Space::Eden);
    EXPECT_EQ(heap->age(obj), 0);
    EXPECT_FALSE(heap->isForwarded(obj));
    EXPECT_EQ(heap->refAt(obj, 0), 0u);
    EXPECT_EQ(heap->refAt(obj, 1), 0u);
}

TEST_F(HeapTest, AllocObjArray)
{
    mem::Addr arr = heap->allocEden(klasses.objArrayId(), 10);
    ASSERT_NE(arr, 0u);
    EXPECT_EQ(heap->arrayLength(arr), 10u);
    EXPECT_EQ(heap->sizeWords(arr), 13u); // 3 + 10
    EXPECT_EQ(heap->refCount(arr), 10u);
    for (std::uint64_t i = 0; i < 10; ++i)
        EXPECT_EQ(heap->refAt(arr, i), 0u);
}

TEST_F(HeapTest, AllocTypeArraySizes)
{
    mem::Addr bytes = heap->allocEden(klasses.byteArrayId(), 100);
    EXPECT_EQ(heap->sizeWords(bytes), 3u + 13u); // ceil(100/8)=13
    EXPECT_EQ(heap->refCount(bytes), 0u);
    mem::Addr longs = heap->allocEden(klasses.longArrayId(), 100);
    EXPECT_EQ(heap->sizeWords(longs), 3u + 100u);
}

TEST_F(HeapTest, EdenExhaustionReturnsNull)
{
    std::uint64_t huge =
        heap->region(Space::Eden).capacity() / 8; // words
    mem::Addr a = heap->allocEden(klasses.longArrayId(), huge);
    EXPECT_EQ(a, 0u); // needs huge+3 words, just over capacity
}

TEST_F(HeapTest, SequentialAllocationIsContiguous)
{
    mem::Addr a = heap->allocEden(nodeId);
    mem::Addr b = heap->allocEden(nodeId);
    EXPECT_EQ(b, a + heap->sizeBytes(a));
}

TEST_F(HeapTest, StoreRefInYoungDoesNotDirtyCards)
{
    mem::Addr obj = heap->allocEden(nodeId);
    mem::Addr tgt = heap->allocEden(nodeId);
    heap->storeRef(obj, 0, tgt);
    EXPECT_EQ(heap->refAt(obj, 0), tgt);
    auto &ct = heap->cardTable();
    EXPECT_EQ(ct.findDirty(0, ct.numCards()), ct.numCards());
}

TEST_F(HeapTest, StoreRefInOldDirtiesCard)
{
    mem::Addr obj = heap->allocOld(6);
    // allocOld does not write a header; fabricate one via raw stores.
    heap->store64(obj, static_cast<std::uint64_t>(nodeId) | (6ull << 32));
    heap->store64(obj + 8, 0);
    mem::Addr tgt = heap->allocEden(nodeId);
    heap->storeRef(obj, 0, tgt);
    auto &ct = heap->cardTable();
    EXPECT_TRUE(ct.isDirty(ct.cardIndex(obj)));
}

TEST_F(HeapTest, ForwardingRoundTrip)
{
    mem::Addr obj = heap->allocEden(nodeId);
    mem::Addr dest = heap->allocTo(6);
    ASSERT_NE(dest, 0u);
    heap->setAge(obj, 3);
    heap->setForwarding(obj, dest);
    EXPECT_TRUE(heap->isForwarded(obj));
    EXPECT_EQ(heap->forwardee(obj), dest);
    EXPECT_EQ(heap->age(obj), 3); // age survives forwarding encode
}

TEST_F(HeapTest, AgeSaturatesAtEncodingLimit)
{
    mem::Addr obj = heap->allocEden(nodeId);
    heap->setAge(obj, 63);
    EXPECT_EQ(heap->age(obj), 63);
}

TEST_F(HeapTest, ForEachObjectWalksAllocationOrder)
{
    std::vector<mem::Addr> allocated;
    for (int i = 0; i < 20; ++i)
        allocated.push_back(heap->allocEden(i % 2 ? nodeId : blobId));
    std::vector<mem::Addr> walked;
    heap->forEachObject(Space::Eden,
                        [&](mem::Addr a) { walked.push_back(a); });
    EXPECT_EQ(walked, allocated);
}

TEST_F(HeapTest, ForEachRefSlotVisitsRefsOnly)
{
    mem::Addr obj = heap->allocEden(nodeId); // 2 refs
    int slots = 0;
    heap->forEachRefSlot(obj, [&](mem::Addr slot) {
        EXPECT_EQ(slot, heap->refSlotAddr(obj, static_cast<std::uint64_t>(
                                                   slots)));
        ++slots;
    });
    EXPECT_EQ(slots, 2);
    mem::Addr blob = heap->allocEden(blobId); // no refs
    heap->forEachRefSlot(blob, [&](mem::Addr) { FAIL(); });
}

TEST_F(HeapTest, FirstObjectOnCardFindsCoveringObject)
{
    // Fill old gen with headered objects of 48 bytes (6 words).
    std::vector<mem::Addr> objs;
    for (int i = 0; i < 100; ++i) {
        mem::Addr o = heap->allocOld(6);
        heap->store64(o, static_cast<std::uint64_t>(blobId)
                             | (6ull << 32));
        heap->store64(o + 8, 0);
        objs.push_back(o);
    }
    // Card 1 starts at old base + 512; objects are 48 B, so object
    // floor(512/48)=10 covers the boundary (start 480 < 512,
    // end 528 > 512).
    mem::Addr found = heap->firstObjectOnCard(1);
    EXPECT_EQ(found, objs[10]);
    // Card 0: first object.
    EXPECT_EQ(heap->firstObjectOnCard(0), objs[0]);
}

TEST_F(HeapTest, FirstObjectOnCardPastTopIsNull)
{
    EXPECT_EQ(heap->firstObjectOnCard(5), 0u);
}

TEST_F(HeapTest, RebuildBlockOffsetsMatchesIncremental)
{
    for (int i = 0; i < 50; ++i) {
        mem::Addr o = heap->allocOld(10);
        heap->store64(o, static_cast<std::uint64_t>(blobId)
                             | (10ull << 32));
        heap->store64(o + 8, 0);
    }
    mem::Addr before = heap->firstObjectOnCard(3);
    heap->rebuildBlockOffsets();
    EXPECT_EQ(heap->firstObjectOnCard(3), before);
}

TEST_F(HeapTest, SwapSurvivorsExchangesRoles)
{
    mem::Addr from_start = heap->region(Space::From).start;
    mem::Addr to_start = heap->region(Space::To).start;
    heap->swapSurvivors();
    EXPECT_EQ(heap->region(Space::From).start, to_start);
    EXPECT_EQ(heap->region(Space::To).start, from_start);
}

TEST_F(HeapTest, ResetSpaceReclaimsEverything)
{
    heap->allocEden(nodeId);
    heap->allocEden(nodeId);
    EXPECT_GT(heap->region(Space::Eden).used(), 0u);
    heap->resetSpace(Space::Eden);
    EXPECT_EQ(heap->region(Space::Eden).used(), 0u);
}

TEST_F(HeapTest, VerifyAcceptsHealthyHeap)
{
    mem::Addr a = heap->allocEden(nodeId);
    mem::Addr b = heap->allocEden(nodeId);
    heap->storeRef(a, 0, b);
    heap->verifySpace(Space::Eden); // must not panic
}

TEST_F(HeapTest, VerifyCatchesDanglingRef)
{
    mem::Addr a = heap->allocEden(nodeId);
    heap->setRefRaw(a, 0, 0x5); // garbage pointer outside all spaces
    EXPECT_DEATH(heap->verifySpace(Space::Eden), "dangling");
}

TEST_F(HeapTest, ObjectCountMatchesAllocations)
{
    for (int i = 0; i < 7; ++i)
        heap->allocEden(nodeId);
    EXPECT_EQ(heap->objectCount(Space::Eden), 7u);
    EXPECT_EQ(heap->objectCount(Space::Old), 0u);
}

TEST_F(HeapTest, SizeWordsForMetadataBlobKinds)
{
    auto cp = klasses.define("pool", KlassKind::ConstantPool);
    EXPECT_EQ(heap->sizeWordsFor(cp, 64), 3u + 8u);
}

TEST_F(HeapTest, VaLimitCoversMetadata)
{
    EXPECT_GT(heap->vaLimit(), cfg.base + cfg.heapBytes);
    // Bitmaps: 2 x heap/64; card table: old/512.
    std::uint64_t expected_meta =
        2 * (cfg.heapBytes / 64)
        + heap->cardTable().storageBytes();
    EXPECT_EQ(heap->vaLimit(),
              cfg.base + cfg.heapBytes + expected_meta);
}
