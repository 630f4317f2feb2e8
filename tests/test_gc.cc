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
