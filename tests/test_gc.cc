/**
 * @file
 * Functional tests for the collectors: scavenge, mark-compact,
 * mark-sweep, the trigger policy, and the graph-fingerprint
 * invariant across collections.
 */

#include <gtest/gtest.h>

#include "gc/collector.hh"
#include "gc/mark_compact.hh"
#include "gc/mark_sweep.hh"
#include "gc/recorder.hh"
#include "gc/scavenge.hh"
#include "gc/verify.hh"
#include "sim/rng.hh"

using namespace charon;
using namespace charon::gc;
using heap::Space;
using mem::Addr;

namespace
{

class GcTest : public ::testing::Test
{
  protected:
    GcTest()
    {
        nodeId = klasses.defineInstance("Node", 2, 2);
        bigId = klasses.defineInstance("Big", 1, 100);
        cfg.heapBytes = 16 * sim::kMiB;
        cfg.tenuringThreshold = 2;
        heap = std::make_unique<heap::ManagedHeap>(cfg, klasses);
        rec = std::make_unique<TraceRecorder>(
            /*num_threads=*/4, /*cube_shift=*/22); // 4 MiB regions
    }

    /** Allocate a Node in Eden and keep it as root @p slot. */
    Addr
    rootNode(std::size_t slot)
    {
        Addr obj = heap->allocEden(nodeId);
        EXPECT_NE(obj, 0u);
        if (heap->roots().size() <= slot)
            heap->roots().resize(slot + 1, 0);
        heap->roots()[slot] = obj;
        return obj;
    }

    heap::KlassTable klasses;
    heap::KlassId nodeId = 0, bigId = 0;
    heap::HeapConfig cfg;
    std::unique_ptr<heap::ManagedHeap> heap;
    std::unique_ptr<TraceRecorder> rec;
};

} // namespace

// ---------------------------------------------------------------------
// Minor GC

TEST_F(GcTest, ScavengeKeepsReachableDropsGarbage)
{
    Addr keep = rootNode(0);
    heap->allocEden(nodeId); // garbage
    heap->allocEden(nodeId); // garbage
    Addr child = heap->allocEden(nodeId);
    heap->storeRef(keep, 0, child);

    auto before = fingerprintGraph(*heap);
    Scavenge sc(*heap, *rec);
    auto result = sc.collect();

    EXPECT_EQ(result.objectsCopied + result.objectsPromoted, 2u);
    EXPECT_EQ(fingerprintGraph(*heap), before);
    // Eden empty, survivors in From (post-swap).
    EXPECT_EQ(heap->region(Space::Eden).used(), 0u);
    EXPECT_EQ(heap->objectCount(Space::From), 2u);
    EXPECT_EQ(heap->region(Space::To).used(), 0u);
    checkHeapIntegrity(*heap);
}

TEST_F(GcTest, ScavengeUpdatesRootsAndInternalRefs)
{
    Addr a = rootNode(0);
    Addr b = heap->allocEden(nodeId);
    heap->storeRef(a, 0, b);
    heap->storeRef(b, 0, a); // cycle

    Scavenge(*heap, *rec).collect();

    Addr new_a = heap->roots()[0];
    EXPECT_NE(new_a, a);
    EXPECT_EQ(heap->spaceOf(new_a), Space::From);
    Addr new_b = heap->refAt(new_a, 0);
    EXPECT_EQ(heap->spaceOf(new_b), Space::From);
    EXPECT_EQ(heap->refAt(new_b, 0), new_a); // cycle preserved
}

TEST_F(GcTest, ScavengeIncrementsAge)
{
    rootNode(0);
    Scavenge(*heap, *rec).collect();
    EXPECT_EQ(heap->age(heap->roots()[0]), 1);
}

TEST_F(GcTest, AgedObjectIsPromoted)
{
    rootNode(0);
    Scavenge(*heap, *rec).collect(); // age 1 (threshold 2)
    auto r2 = Scavenge(*heap, *rec).collect();
    EXPECT_EQ(r2.objectsPromoted, 1u);
    EXPECT_EQ(heap->spaceOf(heap->roots()[0]), Space::Old);
}

TEST_F(GcTest, PayloadSurvivesCopy)
{
    Addr obj = rootNode(0);
    // Node payload words are at offset 16 + 2 refs * 8 = 32.
    heap->store64(obj + 32, 0xdeadbeefcafebabeull);
    heap->store64(obj + 40, 0x1122334455667788ull);
    Scavenge(*heap, *rec).collect();
    Addr moved = heap->roots()[0];
    EXPECT_EQ(heap->load64(moved + 32), 0xdeadbeefcafebabeull);
    EXPECT_EQ(heap->load64(moved + 40), 0x1122334455667788ull);
}

TEST_F(GcTest, OldToYoungRefFoundViaCardTable)
{
    // Promote a holder into Old, then point it at a young object that
    // is reachable ONLY through it.
    Addr holder = rootNode(0);
    Scavenge(*heap, *rec).collect();
    Scavenge(*heap, *rec).collect(); // holder now in Old
    holder = heap->roots()[0];
    ASSERT_EQ(heap->spaceOf(holder), Space::Old);

    Addr young = heap->allocEden(nodeId);
    heap->store64(young + 32, 0x5555aaaa5555aaaaull);
    heap->storeRef(holder, 0, young); // dirties the card

    auto result = Scavenge(*heap, *rec).collect();
    EXPECT_GE(result.dirtyCards, 1u);
    Addr moved = heap->refAt(heap->roots()[0], 0);
    EXPECT_NE(moved, 0u);
    EXPECT_EQ(heap->spaceOf(moved), Space::From);
    EXPECT_EQ(heap->load64(moved + 32), 0x5555aaaa5555aaaaull);
    checkHeapIntegrity(*heap);
}

TEST_F(GcTest, CardStaysDirtyWhileOldToYoungRefPersists)
{
    Addr holder = rootNode(0);
    Scavenge(*heap, *rec).collect();
    Scavenge(*heap, *rec).collect();
    holder = heap->roots()[0];
    Addr young = heap->allocEden(nodeId);
    heap->storeRef(holder, 0, young);

    Scavenge(*heap, *rec).collect();
    // The young target survived into a survivor space, so the card
    // must have been re-dirtied for the next scavenge.
    auto &ct = heap->cardTable();
    EXPECT_TRUE(ct.isDirty(ct.cardIndex(heap->roots()[0])));

    // Once the target is promoted too, the card goes clean.
    Scavenge(*heap, *rec).collect();
    EXPECT_FALSE(ct.isDirty(ct.cardIndex(heap->roots()[0])));
    EXPECT_EQ(heap->spaceOf(heap->refAt(heap->roots()[0], 0)),
              Space::Old);
}

TEST_F(GcTest, SharedTargetCopiedOnce)
{
    Addr a = rootNode(0);
    Addr b = rootNode(1);
    Addr shared = heap->allocEden(nodeId);
    heap->storeRef(a, 0, shared);
    heap->storeRef(b, 0, shared);

    auto result = Scavenge(*heap, *rec).collect();
    EXPECT_EQ(result.objectsCopied, 3u);
    EXPECT_EQ(heap->refAt(heap->roots()[0], 0),
              heap->refAt(heap->roots()[1], 0));
}

TEST_F(GcTest, SurvivorOverflowPromotes)
{
    // Fill eden with objects larger than the To space in total.
    std::uint64_t to_cap = heap->region(Space::To).capacity();
    std::uint64_t big_bytes = 103 * 8; // Big instance: 2+1+100 words
    std::uint64_t count = to_cap / big_bytes + 8;
    heap->roots().resize(count, 0);
    for (std::uint64_t i = 0; i < count; ++i) {
        Addr o = heap->allocEden(bigId);
        ASSERT_NE(o, 0u);
        heap->roots()[i] = o;
    }
    auto result = Scavenge(*heap, *rec).collect();
    EXPECT_GT(result.objectsPromoted, 0u);
    EXPECT_GT(result.objectsCopied, 0u);
    checkHeapIntegrity(*heap);
}

TEST_F(GcTest, ScavengeTraceHasExpectedPhases)
{
    rootNode(0);
    Scavenge(*heap, *rec).collect();
    const auto &gc = rec->run().gcs.back();
    EXPECT_FALSE(gc.major);
    ASSERT_EQ(gc.phases.size(), 3u);
    EXPECT_EQ(gc.phases[0].kind, PhaseKind::MinorRoots);
    EXPECT_EQ(gc.phases[1].kind, PhaseKind::MinorCardScan);
    EXPECT_EQ(gc.phases[2].kind, PhaseKind::MinorEvacuate);
    // The evacuation copied exactly one object.
    EXPECT_EQ(gc.phases[2].totalInvocations(PrimKind::Copy), 1u);
    EXPECT_GE(gc.phases[1].totalInvocations(PrimKind::Search), 1u);
}

TEST_F(GcTest, TraceCopyBytesMatchFunctionalBytes)
{
    for (int i = 0; i < 10; ++i)
        rootNode(static_cast<std::size_t>(i));
    auto result = Scavenge(*heap, *rec).collect();
    const auto &gc = rec->run().gcs.back();
    std::uint64_t trace_bytes = 0;
    gc.phases[2].forEachBucket([&](const gc::Bucket &b) {
        if (b.kind == PrimKind::Copy)
            trace_bytes += b.seqReadBytes;
    });
    EXPECT_EQ(trace_bytes, result.bytesCopied + result.bytesPromoted);
}

// ---------------------------------------------------------------------
// Major GC

TEST_F(GcTest, MarkCompactPreservesGraph)
{
    Addr a = rootNode(0);
    Addr b = heap->allocEden(nodeId);
    Addr c = heap->allocEden(nodeId);
    heap->storeRef(a, 0, b);
    heap->storeRef(b, 0, c);
    heap->storeRef(c, 1, a);
    heap->allocEden(bigId); // garbage

    auto before = fingerprintGraph(*heap);
    MarkCompact mc(*heap, *rec);
    auto result = mc.collect();

    EXPECT_FALSE(result.outOfMemory);
    EXPECT_EQ(result.liveObjects, 3u);
    EXPECT_EQ(fingerprintGraph(*heap), before);
    checkHeapIntegrity(*heap);
}

TEST_F(GcTest, MarkCompactPacksHeapBottom)
{
    // Some garbage between live objects, then compact.
    std::vector<Addr> keep;
    for (int i = 0; i < 50; ++i) {
        Addr o = heap->allocEden(nodeId);
        if (i % 3 == 0)
            keep.push_back(o);
    }
    heap->roots().assign(keep.begin(), keep.end());
    MarkCompact mc(*heap, *rec);
    auto result = mc.collect();

    // Everything live is contiguous at the bottom of Old.
    EXPECT_EQ(heap->region(Space::Old).used(), result.liveBytes);
    EXPECT_EQ(heap->objectCount(Space::Old), result.liveObjects);
    EXPECT_EQ(heap->region(Space::Eden).used(), 0u);
    EXPECT_EQ(heap->region(Space::From).used(), 0u);
    EXPECT_EQ(heap->region(Space::To).used(), 0u);
    heap->verifySpace(Space::Old);
}

TEST_F(GcTest, MarkCompactIsIdempotentOnPackedHeap)
{
    for (int i = 0; i < 20; ++i)
        rootNode(static_cast<std::size_t>(i));
    MarkCompact(*heap, *rec).collect();
    auto fp1 = fingerprintGraph(*heap);
    auto r2 = MarkCompact(*heap, *rec).collect();
    // Already packed: every object "moves" to its own address.
    EXPECT_EQ(r2.bytesMoved, 0u);
    EXPECT_EQ(fingerprintGraph(*heap), fp1);
}

TEST_F(GcTest, MarkCompactEmitsBitmapCountAndCopy)
{
    Addr a = rootNode(0);
    Addr b = heap->allocEden(nodeId);
    heap->storeRef(a, 1, b);
    MarkCompact(*heap, *rec).collect();
    const auto &gc = rec->run().gcs.back();
    ASSERT_EQ(gc.phases.size(), 3u);
    EXPECT_EQ(gc.phases[0].kind, PhaseKind::MajorMark);
    EXPECT_EQ(gc.phases[1].kind, PhaseKind::MajorSummary);
    EXPECT_EQ(gc.phases[2].kind, PhaseKind::MajorCompact);
    // 2 live objects, 1 non-null pointer + 1 root: BitmapCount =
    // adjusted pointers (2) + moved objects (2).  The two adjacent
    // objects move as one contiguous run -> one bulk Copy.
    EXPECT_EQ(gc.phases[2].totalInvocations(PrimKind::BitmapCount), 4u);
    EXPECT_EQ(gc.phases[2].totalInvocations(PrimKind::Copy), 1u);
    EXPECT_EQ(gc.phases[0].totalInvocations(PrimKind::ScanPush), 2u);
}

TEST_F(GcTest, MarkCompactBitmapCacheHitRateMeasured)
{
    for (int i = 0; i < 200; ++i)
        rootNode(static_cast<std::size_t>(i));
    MarkCompact(*heap, *rec).collect();
    const auto &gc = rec->run().gcs.back();
    // Compaction walks the bitmap with strong locality; the 8 KB
    // cache should be comfortably above 50% on this stream (the paper
    // reports ~90% on full workloads).
    EXPECT_GT(gc.phases[2].bitmapCacheHitRate, 0.5);
}

TEST_F(GcTest, MarkCompactOutOfMemoryLeavesHeapIntact)
{
    // Make the live set bigger than Old: fill Old completely with
    // live data and add live Eden data on top.
    std::uint64_t big_bytes = 103 * 8;
    std::size_t slot = 0;
    while (true) {
        Addr o = heap->allocOld(103);
        if (o == 0)
            break;
        heap->store64(o, static_cast<std::uint64_t>(bigId)
                             | (103ull << 32));
        heap->store64(o + 8, 0);
        for (int i = 0; i < 1; ++i)
            heap->store64(o + 16 + static_cast<std::uint64_t>(i) * 8, 0);
        if (heap->roots().size() <= slot)
            heap->roots().resize(slot + 1, 0);
        heap->roots()[slot++] = o;
    }
    while (true) {
        Addr o = heap->allocEden(bigId);
        if (o == 0)
            break;
        if (heap->roots().size() <= slot)
            heap->roots().resize(slot + 1, 0);
        heap->roots()[slot++] = o;
    }
    (void)big_bytes;

    auto before = fingerprintGraph(*heap);
    auto result = MarkCompact(*heap, *rec).collect();
    EXPECT_TRUE(result.outOfMemory);
    EXPECT_EQ(fingerprintGraph(*heap), before);
}

TEST_F(GcTest, MarkCompactAcrossManyRegions)
{
    // Old-generation objects at planned word offsets from the heap
    // base (compaction regions are 256 words): arrays that span
    // several regions, dead gaps between them, a dense prefix that
    // stays in place.
    const Addr base = heap->base();
    const auto longs = klasses.longArrayId();
    const auto refs = klasses.objArrayId();
    auto place = [&](heap::KlassId k, std::uint64_t len,
                     std::uint64_t at_word) {
        Addr obj = heap->allocOldObject(k, len);
        EXPECT_EQ(obj, base + at_word * 8);
        return obj;
    };
    Addr n0 = place(nodeId, 0, 0); // dense prefix [0, 18)
    Addr n1 = place(nodeId, 0, 6);
    Addr n2 = place(nodeId, 0, 12);
    place(longs, 297, 18);          // dead [18, 318)
    Addr a = place(longs, 597, 318); // [318, 918): regions 1-3
    Addr b = place(nodeId, 0, 918);  // begins in A's last region
    place(longs, 353, 924);          // dead [924, 1280)
    Addr c = place(refs, 697, 1280); // on region 5's first word
    place(longs, 22, 1980);          // dead [1980, 2005)
    Addr d = place(longs, 297, 2005); // last word is region 9's first
    Addr e = place(nodeId, 0, 2305);  // after a one-word partial
    place(longs, 997, 2311);          // dead [2311, 3311)
    Addr f = place(nodeId, 0, 3311);
    ASSERT_EQ(heap->sizeWords(n0), 6u);

    for (std::uint64_t i = 0; i < 597; ++i) {
        heap->store64(a + 24 + i * 8, i * 0x9e3779b97f4a7c15ull);
        heap->store64(d + 24 + (i % 297) * 8, ~i);
    }
    heap->roots() = {n0, c};
    heap->storeRef(n0, 0, n1);
    heap->storeRef(n0, 1, n2);
    heap->storeRef(n1, 0, a);
    heap->storeRef(n1, 1, b);
    heap->storeRef(n2, 0, d);
    heap->storeRef(n2, 1, e);
    heap->storeRef(b, 0, f);
    heap->storeRef(c, 0, f);
    heap->storeRef(c, 1, b);
    heap->storeRef(c, 300, d);
    heap->storeRef(c, 696, n0);
    heap->storeRef(e, 0, c);

    auto before = fingerprintGraph(*heap);
    auto result = MarkCompact(*heap, *rec).collect();
    ASSERT_FALSE(result.outOfMemory);
    EXPECT_EQ(result.liveObjects, 9u);
    EXPECT_EQ(result.liveBytes, 1636u * 8);
    EXPECT_EQ(result.bytesMoved, (1636u - 18) * 8);
    EXPECT_EQ(result.pointersAdjusted, 14u); // 12 references + 2 roots
    EXPECT_EQ(heap->region(Space::Old).used(), result.liveBytes);
    EXPECT_EQ(fingerprintGraph(*heap), before);
    checkHeapIntegrity(*heap);

    // Destinations: the live words to each object's left.
    EXPECT_EQ(heap->roots()[0], base);
    EXPECT_EQ(heap->refAt(base + 6 * 8, 0), base + 18 * 8);   // A
    EXPECT_EQ(heap->refAt(base + 6 * 8, 1), base + 618 * 8);  // B
    EXPECT_EQ(heap->roots()[1], base + 624 * 8);              // C
    EXPECT_EQ(heap->refAt(base + 12 * 8, 0), base + 1324 * 8); // D
    EXPECT_EQ(heap->refAt(base + 12 * 8, 1), base + 1624 * 8); // E
    EXPECT_EQ(heap->refAt(base + 618 * 8, 0), base + 1630 * 8); // F

    const auto &gc = rec->run().gcs.back();
    EXPECT_EQ(gc.phases[2].totalInvocations(PrimKind::BitmapCount),
              result.pointersAdjusted + result.liveObjects);
}

TEST_F(GcTest, MarkCompactBlockBoundaries)
{
    // Destinations come from a region destination, a block offset
    // (64-word blocks, four to a 256-word region) and a count within
    // one bitmap word.  Old-generation objects at planned word
    // offsets put objects across block and region borders, leave
    // blocks in which no object starts, and start regions inside
    // objects begun earlier, whose words the block offsets must hold.
    const Addr base = heap->base();
    const auto longs = klasses.longArrayId();
    auto place = [&](heap::KlassId k, std::uint64_t len,
                     std::uint64_t at_word) {
        Addr obj = heap->allocOldObject(k, len);
        EXPECT_EQ(obj, base + at_word * 8);
        return obj;
    };
    place(longs, 7, 0);                // dead [0, 10)
    Addr n0 = place(nodeId, 0, 10);    // [10, 16)
    place(longs, 41, 16);              // dead [16, 60)
    Addr a = place(longs, 7, 60);      // [60, 70): crosses block 0/1
    place(longs, 47, 70);              // dead [70, 120)
    Addr b = place(longs, 77, 120);    // [120, 200): block 2 has no start
    Addr c = place(nodeId, 0, 200);    // [200, 206)
    place(longs, 41, 206);             // dead [206, 250)
    Addr d = place(klasses.objArrayId(), 597, 250);
    // d is [250, 850): regions 1 and 2 lie inside it, region 3 opens
    // with its last 82 words, and blocks 4-12 hold no object start.
    Addr e = place(nodeId, 0, 850);    // block 13's first, past d's end
    place(longs, 31, 856);             // dead [856, 890)
    Addr f = place(nodeId, 0, 890);    // [890, 896): ends on a block
    Addr g = place(nodeId, 0, 896);    // on block 14's first word
    place(longs, 95, 902);             // dead [902, 1000)
    Addr h = place(longs, 37, 1000);   // [1000, 1040): region 4 opens
                                       // with its last 16 words
    Addr i = place(nodeId, 0, 1040);   // region 4's first object
    place(longs, 51, 1046);            // dead [1046, 1100)
    Addr j = place(nodeId, 0, 1100);   // block 17's first

    for (std::uint64_t w = 0; w < 77; ++w) {
        heap->store64(b + 24 + w * 8, w * 0x9e3779b97f4a7c15ull);
        if (w < 37)
            heap->store64(h + 24 + w * 8, ~w);
    }
    heap->roots() = {n0, c};
    heap->storeRef(n0, 0, a);
    heap->storeRef(n0, 1, b);
    heap->storeRef(c, 0, d);
    heap->storeRef(c, 1, n0);
    heap->storeRef(d, 0, e);
    heap->storeRef(d, 100, f);
    heap->storeRef(d, 300, g);
    heap->storeRef(d, 596, h);
    heap->storeRef(e, 0, i);
    heap->storeRef(e, 1, j);
    heap->storeRef(i, 0, c);
    heap->storeRef(j, 0, e);

    auto before = fingerprintGraph(*heap);
    auto result = MarkCompact(*heap, *rec).collect();
    ASSERT_FALSE(result.outOfMemory);
    EXPECT_EQ(result.liveObjects, 11u);
    EXPECT_EQ(result.liveBytes, 772u * 8);
    EXPECT_EQ(result.pointersAdjusted, 14u); // 12 references + 2 roots
    EXPECT_EQ(heap->region(Space::Old).used(), result.liveBytes);
    EXPECT_EQ(heap->objectCount(Space::Old), result.liveObjects);
    EXPECT_EQ(fingerprintGraph(*heap), before);
    checkHeapIntegrity(*heap);

    // Packed: each object lands on the live words to its left.
    const Addr n0_new = heap->roots()[0];
    const Addr c_new = heap->roots()[1];
    EXPECT_EQ(n0_new, base);
    EXPECT_EQ(heap->refAt(n0_new, 0), base + 6 * 8);     // a
    EXPECT_EQ(heap->refAt(n0_new, 1), base + 16 * 8);    // b
    EXPECT_EQ(c_new, base + 96 * 8);
    const Addr d_new = heap->refAt(c_new, 0);
    EXPECT_EQ(d_new, base + 102 * 8);
    const Addr e_new = heap->refAt(d_new, 0);
    EXPECT_EQ(e_new, base + 702 * 8);
    EXPECT_EQ(heap->refAt(d_new, 100), base + 708 * 8);  // f
    EXPECT_EQ(heap->refAt(d_new, 300), base + 714 * 8);  // g
    const Addr h_new = heap->refAt(d_new, 596);
    EXPECT_EQ(h_new, base + 720 * 8);
    EXPECT_EQ(heap->refAt(e_new, 0), base + 760 * 8);    // i
    EXPECT_EQ(heap->refAt(e_new, 1), base + 766 * 8);    // j
    for (std::uint64_t w = 0; w < 77; ++w) {
        EXPECT_EQ(heap->load64(base + 16 * 8 + 24 + w * 8),
                  w * 0x9e3779b97f4a7c15ull);
        if (w < 37) {
            EXPECT_EQ(heap->load64(h_new + 24 + w * 8), ~w);
        }
    }
}

// ---------------------------------------------------------------------
// Collector policy

TEST_F(GcTest, PolicyRunsMinorWhenGuaranteeHolds)
{
    rootNode(0);
    Collector coll(*heap, *rec);
    EXPECT_EQ(coll.onAllocationFailure(/*humongous=*/false), GcOutcome::Minor);
    EXPECT_EQ(coll.minorCount(), 1u);
    EXPECT_EQ(coll.majorCount(), 0u);
}

TEST_F(GcTest, PolicyEscalatesToMajorWhenOldIsFull)
{
    // Fill Old almost completely so the promotion guarantee fails,
    // with plenty of live young data.
    std::uint64_t old_free = heap->region(Space::Old).free();
    std::uint64_t blob_words = 1024;
    std::size_t slot = 0;
    while (heap->region(Space::Old).free()
           > blob_words * 8 + 4096) {
        Addr o = heap->allocOld(blob_words);
        ASSERT_NE(o, 0u);
        heap->store64(o, static_cast<std::uint64_t>(bigId)
                             | (blob_words << 32));
        heap->store64(o + 8, 0);
        heap->store64(o + 16, 0);
        // Half of old data is garbage (no root).
        if (slot % 2 == 0) {
            heap->roots().push_back(o);
        }
        ++slot;
    }
    (void)old_free;
    // Live young data exceeding the To-space capacity, so the
    // survivor overflow cannot fit in Old's remaining free space.
    std::uint64_t to_cap = heap->region(Space::To).capacity();
    std::uint64_t big_bytes = 103 * 8;
    std::uint64_t count = to_cap / big_bytes + 100;
    for (std::uint64_t i = 0; i < count; ++i) {
        Addr o = heap->allocEden(bigId);
        ASSERT_NE(o, 0u);
        heap->roots().push_back(o);
    }
    Collector coll(*heap, *rec);
    EXPECT_EQ(coll.onAllocationFailure(/*humongous=*/false), GcOutcome::Major);
    EXPECT_EQ(coll.majorCount(), 1u);
    checkHeapIntegrity(*heap);
}

// ---------------------------------------------------------------------
// Mark-sweep (CMS-style)

TEST_F(GcTest, MarkSweepReclaimsDeadOldObjects)
{
    // Populate Old with alternating live/dead objects.
    std::vector<Addr> all;
    for (int i = 0; i < 40; ++i) {
        Addr o = heap->allocOld(10);
        heap->store64(o, static_cast<std::uint64_t>(nodeId)
                             | (6ull << 32));
        // Use real node size (6 words) then filler would misalign;
        // instead size the header to the allocation (10 words) via a
        // long[] of 7 elements: 3 + 7 = 10 words.
        heap->store64(o, static_cast<std::uint64_t>(
                             klasses.longArrayId())
                             | (10ull << 32));
        heap->store64(o + 8, 0);
        heap->store64(o + 16, 7);
        all.push_back(o);
    }
    for (std::size_t i = 0; i < all.size(); i += 2)
        heap->roots().push_back(all[i]);

    auto before = fingerprintGraph(*heap);
    MarkSweep ms(*heap, *rec);
    auto result = ms.collect();

    EXPECT_EQ(result.liveObjects, all.size() / 2);
    EXPECT_EQ(result.freedBytes, (all.size() / 2) * 80);
    EXPECT_EQ(fingerprintGraph(*heap), before); // nothing moved
    heap->verifySpace(Space::Old);             // fillers walkable
    checkHeapIntegrity(*heap);
}

TEST_F(GcTest, MarkSweepCoalescesAdjacentGarbage)
{
    std::vector<Addr> all;
    for (int i = 0; i < 30; ++i) {
        Addr o = heap->allocOld(10);
        heap->store64(o, static_cast<std::uint64_t>(
                             klasses.longArrayId())
                             | (10ull << 32));
        heap->store64(o + 8, 0);
        heap->store64(o + 16, 7);
        all.push_back(o);
    }
    // Keep only every 10th object: runs of 9 dead coalesce.
    for (std::size_t i = 0; i < all.size(); i += 10)
        heap->roots().push_back(all[i]);
    MarkSweep ms(*heap, *rec);
    auto result = ms.collect();
    EXPECT_EQ(result.freeChunks, 3u); // three runs of 9
    for (const auto &chunk : ms.freeList())
        EXPECT_EQ(chunk.bytes, 9u * 80);
}

TEST_F(GcTest, MarkSweepFreeListAllocationReusesHoles)
{
    std::vector<Addr> all;
    for (int i = 0; i < 20; ++i) {
        Addr o = heap->allocOld(10);
        heap->store64(o, static_cast<std::uint64_t>(
                             klasses.longArrayId())
                             | (10ull << 32));
        heap->store64(o + 8, 0);
        heap->store64(o + 16, 7);
        all.push_back(o);
    }
    for (std::size_t i = 0; i < all.size(); i += 2)
        heap->roots().push_back(all[i]);
    MarkSweep ms(*heap, *rec);
    ms.collect();

    auto chunks_before = ms.freeList().size();
    Addr obj = ms.allocateFromFreeList(nodeId); // 6 words into a
    ASSERT_NE(obj, 0u);                         // 10-word hole
    EXPECT_EQ(heap->klassOf(obj), nodeId);
    EXPECT_EQ(heap->sizeWords(obj), 6u);
    EXPECT_EQ(ms.freeList().size(), chunks_before); // split, not drop
    heap->verifySpace(Space::Old);

    // A metadata blob filling the next hole exactly gets the whole
    // header a bump allocation writes, its length word included.
    auto pool = klasses.define("Pool", heap::KlassKind::ConstantPool);
    ASSERT_EQ(heap->sizeWordsFor(pool, 50), 10u);
    Addr blob = ms.allocateFromFreeList(pool, 50);
    ASSERT_NE(blob, 0u);
    EXPECT_EQ(heap->klassOf(blob), pool);
    EXPECT_EQ(heap->arrayLength(blob), 50u);
    EXPECT_EQ(ms.freeList().size(), chunks_before - 1);
    heap->verifySpace(Space::Old);
}

TEST_F(GcTest, MarkSweepNeverEmitsBitmapCount)
{
    rootNode(0);
    MarkSweep(*heap, *rec).collect();
    const auto &gc = rec->run().gcs.back();
    EXPECT_EQ(gc.totalInvocations(PrimKind::BitmapCount), 0u);
    EXPECT_GT(gc.totalInvocations(PrimKind::ScanPush), 0u);
}

// ---------------------------------------------------------------------
// Randomized end-to-end property test

TEST_F(GcTest, PropertyRandomGraphsSurviveManyCollections)
{
    sim::Rng rng(4242);
    // Build a random graph in Eden with payload data.
    std::vector<Addr> objs;
    for (int i = 0; i < 400; ++i) {
        Addr o = rng.chance(0.2)
                     ? heap->allocEden(klasses.objArrayId(),
                                       rng.range(1, 16))
                     : heap->allocEden(nodeId);
        ASSERT_NE(o, 0u);
        objs.push_back(o);
    }
    // Random edges.
    for (Addr o : objs) {
        std::uint64_t n = heap->refCount(o);
        for (std::uint64_t i = 0; i < n; ++i) {
            if (rng.chance(0.6)) {
                heap->storeRef(o, i,
                               objs[rng.below(objs.size())]);
            }
        }
    }
    // A random subset as roots.
    for (Addr o : objs) {
        if (rng.chance(0.15))
            heap->roots().push_back(o);
    }

    auto fp = fingerprintGraph(*heap);
    for (int round = 0; round < 6; ++round) {
        if (round % 3 == 2)
            MarkCompact(*heap, *rec).collect();
        else
            Scavenge(*heap, *rec).collect();
        ASSERT_EQ(fingerprintGraph(*heap), fp) << "round " << round;
        checkHeapIntegrity(*heap);
    }
}

// ---------------------------------------------------------------------
// Adaptive tenuring (opt-in, HotSpot AdaptiveSizePolicy-style)

TEST_F(GcTest, AdaptiveTenuringLowersThresholdOnOverflow)
{
    Collector coll(*heap, *rec);
    coll.setAdaptiveTenuring(true);
    // Live young data far beyond the To space: every scavenge
    // overflows, so the threshold must walk down to 1.
    std::uint64_t to_cap = heap->region(Space::To).capacity();
    std::uint64_t count = to_cap / (103 * 8) * 3;
    for (std::uint64_t i = 0; i < count; ++i) {
        Addr o = heap->allocEden(bigId);
        ASSERT_NE(o, 0u);
        heap->roots().push_back(o);
    }
    coll.minorCollect();
    // Overflow pushed the threshold down (promote sooner).
    EXPECT_LT(coll.tenuringThreshold(), cfg.tenuringThreshold);
    checkHeapIntegrity(*heap);
}

TEST_F(GcTest, AdaptiveTenuringRaisesThresholdWhenSurvivorsIdle)
{
    Collector coll(*heap, *rec);
    coll.setAdaptiveTenuring(true);
    rootNode(0); // a single tiny survivor
    int start = heap->config().tenuringThreshold;
    for (int i = 0; i < 5; ++i)
        coll.minorCollect();
    EXPECT_GT(coll.tenuringThreshold(), start);
    // With a high threshold the lone object keeps ping-ponging in
    // the survivor spaces instead of promoting.
    EXPECT_TRUE(heap->inYoung(heap->roots()[0]));
}

TEST_F(GcTest, PromotionGuaranteeProbesWithTheLiveThreshold)
{
    Collector coll(*heap, *rec);
    coll.setAdaptiveTenuring(true);
    // One To-space overflow walks the threshold from 2 down to 1:
    // from now on every live young object promotes.
    std::uint64_t to_cap = heap->region(Space::To).capacity();
    for (std::uint64_t i = 0; i < to_cap / (103 * 8) * 3; ++i) {
        Addr o = heap->allocEden(bigId);
        ASSERT_NE(o, 0u);
        heap->roots().push_back(o);
    }
    coll.minorCollect();
    ASSERT_EQ(coll.tenuringThreshold(), 1);
    heap->roots().clear();

    // Fresh age-0 nodes: the config threshold would copy them to To,
    // the live one promotes them all.
    for (std::size_t i = 0; i < 50; ++i)
        rootNode(i);
    auto demand =
        Scavenge(*heap, *rec, coll.tenuringThreshold()).estimateDemand();
    ASSERT_EQ(demand.survivorBytes, 0u);
    ASSERT_EQ(demand.promoteBytes, 50 * heap->sizeWordsFor(nodeId, 0) * 8);

    // Leave Old one word short of that demand: the guarantee fails,
    // so the policy must collect the whole heap instead of starting a
    // scavenge whose promotions cannot fit.
    std::uint64_t need_old = demand.promoteBytes + demand.largestObject;
    std::uint64_t blocker_words =
        (heap->region(Space::Old).free() - (need_old - 8)) / 8;
    ASSERT_NE(heap->allocOldObject(klasses.longArrayId(),
                                   blocker_words - 3),
              0u);
    ASSERT_EQ(heap->region(Space::Old).free(), need_old - 8);
    EXPECT_EQ(coll.onAllocationFailure(/*humongous=*/false), GcOutcome::Major);
    EXPECT_EQ(coll.majorCount(), 1u);
    ASSERT_EQ(coll.tenuringThreshold(), 1);

    // With room again, the next scavenge splits its bytes exactly as
    // a probe at the live threshold predicted.
    for (std::size_t i = 50; i < 60; ++i)
        rootNode(i);
    auto next = Scavenge(*heap, *rec, coll.tenuringThreshold())
                    .estimateDemand();
    EXPECT_GT(next.promoteBytes, 0u);
    auto result = coll.minorCollect();
    EXPECT_EQ(next.promoteBytes,
              result.bytesPromoted - result.bytesOverflowPromoted);
    EXPECT_EQ(next.survivorBytes,
              result.bytesCopied + result.bytesOverflowPromoted);
    checkHeapIntegrity(*heap);
}

TEST_F(GcTest, FixedTenuringStaysPut)
{
    Collector coll(*heap, *rec); // adaptive off (default)
    rootNode(0);
    for (int i = 0; i < 4; ++i)
        coll.minorCollect();
    EXPECT_EQ(coll.tenuringThreshold(), cfg.tenuringThreshold);
}
