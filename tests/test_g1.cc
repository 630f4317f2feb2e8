/**
 * @file
 * Tests for the G1-style region heap and collector: region lifecycle,
 * remembered-set barriers, humongous objects, evacuation, marking
 * with per-region liveness, mixed collections, and the fingerprint
 * invariant.
 */

#include <gtest/gtest.h>

#include "gc/g1_collector.hh"
#include "gc/recorder.hh"
#include "gc/verify.hh"
#include "sim/rng.hh"

using namespace charon;
using namespace charon::gc;
using heap::G1Heap;
using heap::G1RegionKind;
using mem::Addr;

namespace
{

class G1Test : public ::testing::Test
{
  protected:
    G1Test()
    {
        nodeId = klasses.defineInstance("Node", 2, 2);
        cfg.heapBytes = 16 * sim::kMiB;
        cfg.regionBytes = 256 * 1024;
        cfg.maxEdenRegions = 8;
        heap = std::make_unique<G1Heap>(cfg, klasses);
        rec = std::make_unique<TraceRecorder>(4, 22);
        g1 = std::make_unique<G1Collector>(*heap, *rec);
    }

    Addr
    rootNode()
    {
        Addr obj = heap->allocate(nodeId);
        EXPECT_NE(obj, 0u);
        heap->roots().push_back(obj);
        return obj;
    }

    heap::KlassTable klasses;
    heap::KlassId nodeId = 0;
    heap::G1Config cfg;
    std::unique_ptr<G1Heap> heap;
    std::unique_ptr<TraceRecorder> rec;
    std::unique_ptr<G1Collector> g1;
};

} // namespace

// ---------------------------------------------------------------------
// Heap mechanics

TEST_F(G1Test, RegionsStartFree)
{
    EXPECT_EQ(heap->numRegions(), 64);
    EXPECT_EQ(heap->freeRegionCount(), 64);
}

TEST_F(G1Test, AllocationClaimsEdenRegions)
{
    Addr obj = heap->allocate(nodeId);
    ASSERT_NE(obj, 0u);
    EXPECT_EQ(heap->regionOf(obj).kind, G1RegionKind::Eden);
    EXPECT_EQ(heap->regionCount(G1RegionKind::Eden), 1);
}

TEST_F(G1Test, EdenBudgetForcesGc)
{
    // Fill Eden regions up to the budget: allocation must then fail.
    std::uint64_t filler = cfg.regionBytes / 8 / 2; // half-region array
    int allocs = 0;
    while (heap->allocate(klasses.longArrayId(), filler - 10) != 0)
        ++allocs;
    EXPECT_EQ(heap->regionCount(G1RegionKind::Eden), cfg.maxEdenRegions);
    EXPECT_GE(allocs, cfg.maxEdenRegions); // ~2 per region
}

TEST_F(G1Test, RegionIndexRoundTrips)
{
    Addr obj = heap->allocate(nodeId);
    int idx = heap->regionIndexOf(obj);
    EXPECT_TRUE(heap->region(idx).contains(obj));
}

TEST_F(G1Test, CrossRegionStoreFeedsRemset)
{
    Addr a = rootNode(); // region 0
    // Claim a second region by filling the first.
    Addr b = a;
    while (heap->regionIndexOf(b) == heap->regionIndexOf(a)) {
        b = heap->allocate(nodeId);
        ASSERT_NE(b, 0u);
    }
    heap->storeRef(a, 0, b);
    const auto &remset = heap->regionOf(b).remset;
    EXPECT_EQ(remset.size(), 1u);
    EXPECT_TRUE(remset.count(heap->refSlotAddr(a, 0)));
}

TEST_F(G1Test, SameRegionStoreSkipsRemset)
{
    Addr a = rootNode();
    Addr b = heap->allocate(nodeId);
    ASSERT_EQ(heap->regionIndexOf(a), heap->regionIndexOf(b));
    heap->storeRef(a, 0, b);
    EXPECT_TRUE(heap->regionOf(b).remset.empty());
}

TEST_F(G1Test, HumongousAllocationSpansRegions)
{
    // 3 regions worth of longs.
    std::uint64_t elems = 3 * cfg.regionBytes / 8 - 16;
    Addr obj = heap->allocateHumongous(klasses.longArrayId(), elems);
    ASSERT_NE(obj, 0u);
    int head = heap->regionIndexOf(obj);
    EXPECT_EQ(heap->region(head).kind, G1RegionKind::Humongous);
    EXPECT_EQ(heap->region(head).humongousSpan, 2);
    EXPECT_EQ(heap->region(head + 1).humongousSpan, -1);
    EXPECT_EQ(heap->regionCount(G1RegionKind::Humongous), 3);
    // Release reclaims the whole run.
    heap->releaseRegion(head);
    EXPECT_EQ(heap->freeRegionCount(), 64);
}

TEST_F(G1Test, BigAllocationsRouteToHumongousAutomatically)
{
    std::uint64_t elems = cfg.regionBytes / 8; // > half a region
    Addr obj = heap->allocate(klasses.longArrayId(), elems);
    ASSERT_NE(obj, 0u);
    EXPECT_EQ(heap->regionOf(obj).kind, G1RegionKind::Humongous);
}

// ---------------------------------------------------------------------
// Young collections

TEST_F(G1Test, YoungCollectKeepsReachableDropsGarbage)
{
    Addr keep = rootNode();
    Addr child = heap->allocate(nodeId);
    heap->storeRef(keep, 0, child);
    for (int i = 0; i < 100; ++i)
        heap->allocate(nodeId); // garbage

    auto before = fingerprintGraph(*heap);
    auto result = g1->youngCollect();
    EXPECT_FALSE(result.outOfRegions);
    EXPECT_EQ(result.objectsEvacuated, 2u);
    EXPECT_TRUE(fingerprintGraph(*heap) == before);
    EXPECT_EQ(heap->regionCount(G1RegionKind::Eden), 0);
    heap->verify();
}

TEST_F(G1Test, SurvivorsTenureAfterThreshold)
{
    rootNode();
    g1->youngCollect();
    Addr moved = heap->roots()[0];
    EXPECT_EQ(heap->regionOf(moved).kind, G1RegionKind::Survivor);
    g1->youngCollect();
    moved = heap->roots()[0];
    EXPECT_EQ(heap->regionOf(moved).kind, G1RegionKind::Old);
}

TEST_F(G1Test, RemsetEntryEvacuatesPrivateObject)
{
    // An object reachable only through an old-region holder's
    // remembered-set entry must survive a young collection.
    Addr holder = rootNode();
    g1->youngCollect();
    g1->youngCollect(); // holder now in an Old region
    holder = heap->roots()[0];
    ASSERT_EQ(heap->regionOf(holder).kind, G1RegionKind::Old);

    Addr young = heap->allocate(nodeId);
    heap->arena().store64(young + 32, 0x1234567890abcdefull);
    heap->storeRef(holder, 0, young);
    // Reachable only via holder: no root for `young`.
    auto result = g1->youngCollect();
    EXPECT_FALSE(result.outOfRegions);
    Addr moved = heap->refAt(heap->roots()[0], 0);
    ASSERT_NE(moved, 0u);
    EXPECT_EQ(heap->load64(moved + 32), 0x1234567890abcdefull);
    heap->verify();
}

TEST_F(G1Test, EvacuationMaintainsRemsets)
{
    // After evacuating, the moved object's outgoing cross-region ref
    // must appear in the target's remset (so the next collection of
    // that target still finds it).
    Addr a = rootNode();
    g1->youngCollect();
    g1->youngCollect(); // a tenured
    a = heap->roots()[0];
    Addr young = heap->allocate(nodeId);
    heap->roots().push_back(young);
    heap->storeRef(young, 0, a); // young -> old cross-region ref
    g1->youngCollect();
    young = heap->roots()[1];
    Addr slot = heap->refSlotAddr(young, 0);
    EXPECT_TRUE(heap->regionOf(a).remset.count(slot));
}

// ---------------------------------------------------------------------
// Marking and mixed collections

TEST_F(G1Test, MarkComputesPerRegionLiveness)
{
    std::vector<Addr> keep;
    for (int i = 0; i < 200; ++i) {
        Addr o = heap->allocate(nodeId);
        if (i % 4 == 0) {
            heap->roots().push_back(o);
            keep.push_back(o);
        }
    }
    auto result = g1->concurrentMark();
    EXPECT_EQ(result.liveObjects, keep.size());
    std::uint64_t region_live = 0;
    for (int i = 0; i < heap->numRegions(); ++i)
        region_live += heap->region(i).liveBytes;
    EXPECT_EQ(region_live, result.liveBytes);
    // The marking trace carries Bitmap Count invocations per region.
    const auto &trace = rec->run().gcs.back();
    EXPECT_GT(trace.totalInvocations(PrimKind::BitmapCount), 0u);
    EXPECT_GT(trace.totalInvocations(PrimKind::ScanPush), 0u);
}

TEST_F(G1Test, MarkFreesDeadHumongous)
{
    std::uint64_t elems = cfg.regionBytes / 4; // 2 regions of longs
    Addr dead = heap->allocateHumongous(klasses.longArrayId(), elems);
    Addr live = heap->allocateHumongous(klasses.longArrayId(), elems);
    ASSERT_NE(dead, 0u);
    ASSERT_NE(live, 0u);
    heap->roots().push_back(live);
    int before = heap->regionCount(G1RegionKind::Humongous);
    auto result = g1->concurrentMark();
    EXPECT_EQ(result.humongousFreed, 1);
    EXPECT_LT(heap->regionCount(G1RegionKind::Humongous), before);
    heap->verify();
}

TEST_F(G1Test, MixedCollectReclaimsSparseOldRegions)
{
    // Tenure a batch, drop most roots, mark, then mixed-collect: the
    // mostly-dead old regions must be evacuated and freed.
    for (int i = 0; i < 20000; ++i)
        rootNode();
    g1->youngCollect();
    g1->youngCollect(); // everything tenured
    // Keep 5% alive.
    auto &roots = heap->roots();
    for (std::size_t i = 0; i < roots.size(); ++i) {
        if (i % 20 != 0)
            roots[i] = 0;
    }
    auto fp = fingerprintGraph(*heap);
    int old_before = heap->regionCount(G1RegionKind::Old);
    g1->concurrentMark();
    auto result = g1->mixedCollect();
    EXPECT_FALSE(result.outOfRegions);
    EXPECT_LT(heap->regionCount(G1RegionKind::Old), old_before);
    EXPECT_TRUE(fingerprintGraph(*heap) == fp);
    heap->verify();
}

TEST_F(G1Test, PolicyDriverCollectsUnderPressure)
{
    // Allocate through many GCs with a sliding live window.
    sim::Rng rng(11);
    std::deque<std::size_t> window;
    auto fp_stable_root = rootNode();
    (void)fp_stable_root;
    for (int i = 0; i < 600000; ++i) {
        Addr obj = heap->allocate(nodeId);
        if (obj == 0) {
            auto outcome = g1->onAllocationFailure(/*humongous=*/false);
            ASSERT_NE(outcome, GcOutcome::OutOfMemory);
            obj = heap->allocate(nodeId);
            ASSERT_NE(obj, 0u);
        }
        if (rng.chance(0.5)) {
            heap->roots().push_back(obj);
            window.push_back(heap->roots().size() - 1);
            if (window.size() > 100000) {
                heap->roots()[window.front()] = 0;
                window.pop_front();
            }
        }
    }
    EXPECT_GT(g1->minorCount(), 0u);
    EXPECT_GT(g1->majorCount(), 0u);
    EXPECT_GT(g1->markCount(), 0u);
    heap->verify();
}

TEST_F(G1Test, TraceUsesAllThreePrimitiveFamilies)
{
    // Table 1's G1 row, demonstrated: a full G1 cycle (young + mark +
    // mixed) invokes Copy, Scan&Push AND Bitmap Count.
    for (int i = 0; i < 3000; ++i)
        rootNode();
    g1->youngCollect();
    auto &roots = heap->roots();
    for (std::size_t i = 0; i < roots.size(); ++i) {
        if (i % 10 != 0)
            roots[i] = 0;
    }
    g1->concurrentMark();
    g1->mixedCollect();

    std::uint64_t copies = 0, scans = 0, bitmaps = 0;
    for (const auto &gc : rec->run().gcs) {
        copies += gc.totalInvocations(PrimKind::Copy);
        scans += gc.totalInvocations(PrimKind::ScanPush);
        bitmaps += gc.totalInvocations(PrimKind::BitmapCount);
    }
    EXPECT_GT(copies, 0u);
    EXPECT_GT(scans, 0u);
    EXPECT_GT(bitmaps, 0u);
}

TEST_F(G1Test, PropertyRandomGraphSurvivesG1Cycles)
{
    sim::Rng rng(99);
    std::vector<Addr> objs;
    for (int i = 0; i < 500; ++i) {
        Addr o = rng.chance(0.2)
                     ? heap->allocate(klasses.objArrayId(),
                                      rng.range(1, 12))
                     : heap->allocate(nodeId);
        if (o == 0) {
            ASSERT_NE(g1->onAllocationFailure(/*humongous=*/false),
                      GcOutcome::OutOfMemory);
            --i;
            continue;
        }
        objs.push_back(o);
        if (rng.chance(0.3))
            heap->roots().push_back(o);
    }
    // Random edges (objs addresses may be stale after GCs above, so
    // rebuild the edge phase only over the current roots).
    auto &roots = heap->roots();
    for (Addr o : roots) {
        if (o == 0)
            continue;
        std::uint64_t n = heap->refCount(o);
        for (std::uint64_t i = 0; i < n; ++i) {
            Addr t = roots[rng.below(roots.size())];
            if (t != 0 && rng.chance(0.6))
                heap->storeRef(o, i, t);
        }
    }
    auto fp = fingerprintGraph(*heap);
    for (int round = 0; round < 5; ++round) {
        if (round % 2 == 0) {
            g1->youngCollect();
        } else {
            g1->concurrentMark();
            g1->mixedCollect();
        }
        ASSERT_TRUE(fingerprintGraph(*heap) == fp)
            << "round " << round;
        heap->verify();
    }
}

TEST_F(G1Test, EvacuationFailureSelfForwardsAndRetainsRegions)
{
    // Fill the whole heap with live data so a young collection cannot
    // claim destination regions: G1 must self-forward in place,
    // retain the regions as Old, and leave the heap consistent.
    while (true) {
        Addr o = heap->allocate(nodeId);
        if (o == 0) {
            if (heap->freeRegionCount() == 0)
                break;
            // Eden budget reached but free regions remain: grow the
            // budget by claiming them as eden via allocIn.
            Addr forced = heap->allocIn(G1RegionKind::Eden, 6);
            if (forced == 0)
                break;
            heap->arena().writeHeader(forced, nodeId, 6, 0);
            o = forced;
        }
        heap->roots().push_back(o);
    }
    ASSERT_EQ(heap->freeRegionCount(), 0);

    auto fp = fingerprintGraph(*heap);
    auto result = g1->youngCollect();
    EXPECT_TRUE(result.outOfRegions);
    EXPECT_GT(result.objectsFailed, 0u);
    EXPECT_GT(result.regionsRetained, 0);
    // Nothing lost, nothing corrupted: the graph is intact and no
    // object is left with a forwarding mark.
    EXPECT_TRUE(fingerprintGraph(*heap) == fp);
    heap->verify();
    for (int i = 0; i < heap->numRegions(); ++i) {
        heap->forEachObjectInRegion(i, [&](Addr obj) {
            EXPECT_FALSE(heap->arena().isForwarded(obj));
        });
    }
    // Retained young regions were retired to Old.
    EXPECT_EQ(heap->regionCount(G1RegionKind::Eden), 0);
}

TEST_F(G1Test, PolicyEscalatesAfterEvacuationFailure)
{
    // Under the same pressure, the driver must escalate to
    // mark + mixed rather than report success.
    std::deque<std::size_t> window;
    sim::Rng rng(21);
    int outcome_mixed = 0;
    for (int i = 0; i < 400000; ++i) {
        Addr obj = heap->allocate(nodeId);
        if (obj == 0) {
            auto outcome = g1->onAllocationFailure(/*humongous=*/false);
            if (outcome == GcOutcome::OutOfMemory)
                break;
            outcome_mixed += outcome == GcOutcome::Major ? 1 : 0;
            obj = heap->allocate(nodeId);
            if (obj == 0)
                break;
        }
        // Nearly everything stays live: relentless pressure.
        if (rng.chance(0.9)) {
            heap->roots().push_back(obj);
            window.push_back(heap->roots().size() - 1);
            if (window.size() > 120000) {
                heap->roots()[window.front()] = 0;
                window.pop_front();
            }
        }
    }
    heap->verify();
    EXPECT_GT(outcome_mixed + static_cast<int>(g1->majorCount()), 0);
}
