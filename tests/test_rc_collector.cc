/**
 * @file
 * Internals tests for the RC/ZCT collector: the zero-count-table
 * drain must reclaim acyclic garbage transitively, dead cycles the
 * counts cannot see must be handed to the backup mark pass (and only
 * then), and recycled blocks must flow through the size-binned free
 * queues — exact-fit LIFO reuse, larger-bin splitting with a binned
 * remainder, bump allocation as the cold path.  Epochs must preserve
 * the live graph, and the counts they keep in mark words must never
 * read as a forwarding pointer or an age.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "gc/rc_collector.hh"
#include "gc/recorder.hh"
#include "gc/verify.hh"
#include "sim/rng.hh"

using namespace charon;
using namespace charon::gc;
using heap::Space;
using mem::Addr;

namespace
{

class RcCollectorTest : public ::testing::Test
{
  protected:
    RcCollectorTest()
    {
        nodeId = klasses.defineInstance("Node", 2, 2);
        cfg.heapBytes = 4 * sim::kMiB;
        heap = std::make_unique<heap::ManagedHeap>(cfg, klasses);
        rec = std::make_unique<TraceRecorder>(
            /*num_threads=*/4, /*cube_shift=*/20); // 1 MiB regions
        rc = std::make_unique<RcCollector>(*heap, *rec);
    }

    Addr
    node()
    {
        Addr obj = rc->allocate(nodeId);
        EXPECT_NE(obj, 0u);
        return obj;
    }

    void
    root(std::size_t slot, Addr obj)
    {
        if (heap->roots().size() <= slot)
            heap->roots().resize(slot + 1, 0);
        heap->roots()[slot] = obj;
    }

    /**
     * Garbage large enough that the ZCT drain alone clears the
     * backup-pass trigger (freed >= old capacity / 16).
     */
    Addr
    bulkGarbage()
    {
        std::uint64_t quota =
            heap->region(Space::Old).capacity() / 16;
        Addr obj = rc->allocate(klasses.byteArrayId(), 2 * quota);
        EXPECT_NE(obj, 0u);
        return obj;
    }

    /** Phase kinds of the most recently recorded epoch, in order. */
    std::vector<PhaseKind>
    lastEpochPhases() const
    {
        std::vector<PhaseKind> kinds;
        for (const auto &phase : rec->run().gcs.back().phases)
            kinds.push_back(phase.kind);
        return kinds;
    }

    /** Total invocations of @p kind across the last epoch. */
    std::uint64_t
    lastEpochInvocations(PrimKind kind) const
    {
        std::uint64_t n = 0;
        for (const auto &phase : rec->run().gcs.back().phases)
            phase.forEachBucket([&](const Bucket &b) {
                if (b.kind == kind)
                    n += b.invocations;
            });
        return n;
    }

    heap::KlassTable klasses;
    heap::KlassId nodeId = 0;
    heap::HeapConfig cfg;
    std::unique_ptr<heap::ManagedHeap> heap;
    std::unique_ptr<TraceRecorder> rec;
    std::unique_ptr<RcCollector> rc;
};

} // namespace

// ---------------------------------------------------------------------
// ZCT drain and the backup mark handoff

TEST_F(RcCollectorTest, ZctDrainReclaimsAcyclicGarbageTransitively)
{
    Addr keep = node();
    Addr kid = node();
    heap->storeRef(keep, 0, kid);
    root(0, keep);

    // Unrooted chain a -> b -> c: only a starts in the ZCT; b and c
    // must follow via the transitive decrement.
    Addr a = node(), b = node(), c = node();
    heap->storeRef(a, 0, b);
    heap->storeRef(b, 0, c);
    bulkGarbage(); // keeps this epoch below the backup-pass trigger

    EXPECT_EQ(rc->onAllocationFailure(), GcOutcome::Major);

    EXPECT_EQ(rc->backupMarkPasses(), 0u)
        << "acyclic garbage must not need the backup pass";
    EXPECT_EQ(rc->majorCount(), 1u);
    EXPECT_EQ(rc->freeQueueBlocks(), 4u); // a, b, c + bulk array

    // Survivors untouched, in place (non-moving collector).
    EXPECT_EQ(heap->roots()[0], keep);
    EXPECT_EQ(heap->refAt(keep, 0), kid);
    checkHeapIntegrity(*heap);

    // The epoch is counts + drain, nothing else; the count RMWs
    // record as RefCount and each recycled block as a Copy zero-fill.
    EXPECT_EQ(lastEpochPhases(),
              (std::vector<PhaseKind>{PhaseKind::RcUpdate,
                                      PhaseKind::RcReclaim}));
    EXPECT_GT(lastEpochInvocations(PrimKind::RefCount), 0u);
    EXPECT_EQ(lastEpochInvocations(PrimKind::Copy), 4u);
}

TEST_F(RcCollectorTest, DeadCycleIsHandedToTheBackupMarkPass)
{
    Addr keep = node();
    root(0, keep);

    // Unrooted 2-cycle: both counts stay 1, so the ZCT never sees
    // either object and the epoch recovers nothing by counting.
    Addr x = node(), y = node();
    heap->storeRef(x, 0, y);
    heap->storeRef(y, 0, x);

    EXPECT_EQ(rc->onAllocationFailure(), GcOutcome::Major);

    EXPECT_EQ(rc->backupMarkPasses(), 1u);
    EXPECT_EQ(rc->freeQueueBlocks(), 2u);
    EXPECT_EQ(heap->roots()[0], keep);
    checkHeapIntegrity(*heap);

    // Handoff shape: counts, empty drain, mark closure, then the
    // unmarked-object sweep under a second reclaim phase.
    EXPECT_EQ(lastEpochPhases(),
              (std::vector<PhaseKind>{
                  PhaseKind::RcUpdate, PhaseKind::RcReclaim,
                  PhaseKind::MajorMark, PhaseKind::RcReclaim}));

    // Both cycle members are back in the bins: the next two
    // same-sized allocations reuse exactly their blocks.
    std::vector<Addr> reused = {node(), node()};
    std::sort(reused.begin(), reused.end());
    std::vector<Addr> expected = {std::min(x, y), std::max(x, y)};
    EXPECT_EQ(reused, expected);
    EXPECT_EQ(rc->freeQueueBlocks(), 0u);
}

TEST_F(RcCollectorTest, RootedCycleSurvivesUntilUnrooted)
{
    Addr r = node();
    Addr x = node(), y = node();
    heap->storeRef(r, 0, x);
    heap->storeRef(x, 0, y);
    heap->storeRef(y, 0, x);
    root(0, r);
    node(); // plain garbage so each epoch reclaims something

    // Epoch 1: the backup pass runs (too little recovered) but must
    // not touch the reachable cycle.
    EXPECT_EQ(rc->onAllocationFailure(), GcOutcome::Major);
    EXPECT_EQ(rc->backupMarkPasses(), 1u);
    EXPECT_EQ(heap->refAt(r, 0), x);
    EXPECT_EQ(heap->refAt(x, 0), y);
    EXPECT_EQ(heap->refAt(y, 0), x);

    // Epoch 2, unrooted: the ZCT frees r, the cycle's counts hold at
    // one, and the second backup pass reclaims x and y.
    root(0, 0);
    node();
    EXPECT_EQ(rc->onAllocationFailure(), GcOutcome::Major);
    EXPECT_EQ(rc->backupMarkPasses(), 2u);
    EXPECT_EQ(rc->majorCount(), 2u);

    std::vector<Addr> freed = {r, x, y};
    std::sort(freed.begin(), freed.end());
    std::vector<Addr> reused = {node(), node(), node()};
    std::sort(reused.begin(), reused.end());
    // All three blocks recycle; the extra per-epoch garbage nodes
    // were themselves reused in the meantime, so reuse is exact.
    for (Addr obj : freed)
        EXPECT_NE(std::find(reused.begin(), reused.end(), obj),
                  reused.end())
            << "block 0x" << std::hex << obj << " was not recycled";
}

TEST_F(RcCollectorTest, EpochWithNothingToFreeReportsOutOfMemory)
{
    Addr keep = node();
    root(0, keep);
    EXPECT_EQ(rc->onAllocationFailure(), GcOutcome::OutOfMemory);
    EXPECT_EQ(rc->backupMarkPasses(), 1u)
        << "the backup pass must run before giving up";
    EXPECT_EQ(heap->roots()[0], keep);
}

TEST_F(RcCollectorTest, EpochsPreserveTheLiveGraphAndMarkWords)
{
    // A seeded rooted graph, mutated before every epoch: new objects
    // and edges (cycles included), overwritten slots and dropped roots
    // that orphan live subgraphs, plus fresh acyclic and cyclic
    // garbage.  Bulk garbage on even epochs lets the count drain alone
    // clear the backup-pass trigger; odd epochs take the mark pass.
    sim::Rng rng(1515);
    auto reachable = [&] {
        std::vector<Addr> found;
        std::set<Addr> seen;
        auto visit = [&](Addr obj) {
            if (obj != 0 && seen.insert(obj).second)
                found.push_back(obj);
        };
        for (Addr r : heap->roots())
            visit(r);
        for (std::size_t i = 0; i < found.size(); ++i) {
            for (std::uint64_t s = 0; s < heap->refCount(found[i]); ++s)
                visit(heap->refAt(found[i], s));
        }
        return found;
    };
    auto link = [&](Addr from, Addr to) {
        std::uint64_t slots = heap->refCount(from);
        heap->storeRef(from, rng.below(slots), to);
    };
    root(0, node());
    for (int epoch = 0; epoch < 6; ++epoch) {
        std::vector<Addr> live = reachable();
        for (int i = 0; i < 150; ++i) {
            Addr obj = rng.chance(0.2)
                           ? rc->allocate(klasses.objArrayId(),
                                          rng.range(1, 8))
                           : node();
            ASSERT_NE(obj, 0u);
            link(live[rng.below(live.size())], obj);
            if (rng.chance(0.1))
                root(heap->roots().size(), obj);
            live.push_back(obj);
        }
        for (int i = 0; i < 100; ++i)
            link(live[rng.below(live.size())],
                 live[rng.below(live.size())]);
        for (std::size_t r = 1; r < heap->roots().size(); ++r) {
            if (rng.chance(0.2))
                heap->roots()[r] = 0;
        }
        for (int i = 0; i < 20; ++i) {
            // Dead chain a -> b -> c pointing into the live graph,
            // and a dead cycle x <-> y.
            Addr a = node(), b = node(), c = node();
            heap->storeRef(a, 0, b);
            heap->storeRef(b, 0, c);
            heap->storeRef(c, 1, live[rng.below(live.size())]);
            Addr x = node(), y = node();
            heap->storeRef(x, 0, y);
            heap->storeRef(y, 0, x);
        }
        if (epoch % 2 == 0)
            bulkGarbage();

        const GraphFingerprint before = fingerprintHeap(*heap);
        ASSERT_EQ(rc->onAllocationFailure(), GcOutcome::Major);
        EXPECT_EQ(fingerprintHeap(*heap), before) << "epoch " << epoch;
        checkHeapIntegrity(*heap);
        heap->forEachObject(Space::Old, [&](Addr obj) {
            EXPECT_FALSE(heap->isForwarded(obj))
                << "epoch " << epoch << ", object 0x" << std::hex << obj;
            EXPECT_EQ(heap->age(obj), 0)
                << "epoch " << epoch << ", object 0x" << std::hex << obj;
        });
    }
    EXPECT_EQ(rc->majorCount(), 6u);
    EXPECT_EQ(rc->backupMarkPasses(), 3u);
}

// ---------------------------------------------------------------------
// Binned free-queue recycling

TEST_F(RcCollectorTest, ExactFitReusesTheFreedBlock)
{
    Addr keep = node();
    root(0, keep);
    Addr dead = node();
    heap->storeRef(dead, 1, keep); // dying refs must not pin targets

    EXPECT_EQ(rc->onAllocationFailure(), GcOutcome::Major);
    ASSERT_EQ(rc->freeQueueBlocks(), 1u);

    Addr fresh = node();
    EXPECT_EQ(fresh, dead) << "exact-fit bin must hand back the block";
    EXPECT_EQ(rc->freeQueueBlocks(), 0u);
    // The recycled block got a fresh header: zeroed ref fields, same
    // size, and the survivor it once referenced is untouched.
    EXPECT_EQ(heap->refAt(fresh, 0), 0u);
    EXPECT_EQ(heap->refAt(fresh, 1), 0u);
    EXPECT_EQ(heap->sizeWords(fresh),
              heap->sizeWordsFor(nodeId, 0));
    EXPECT_EQ(heap->roots()[0], keep);
    checkHeapIntegrity(*heap);
}

TEST_F(RcCollectorTest, RecycledBlockGetsTheFullHeaderOfItsNewKind)
{
    // A freed Node block re-allocated as a metadata blob of the same
    // size carries the blob's length word, as a bump allocation does.
    auto pool = klasses.define("Pool", heap::KlassKind::ConstantPool);
    Addr dead = node();
    EXPECT_EQ(rc->onAllocationFailure(), GcOutcome::Major);
    ASSERT_EQ(rc->freeQueueBlocks(), 1u);

    ASSERT_EQ(heap->sizeWordsFor(pool, 20), heap->sizeWordsFor(nodeId, 0));
    Addr blob = rc->allocate(pool, 20);
    EXPECT_EQ(blob, dead);
    EXPECT_EQ(heap->klassOf(blob), pool);
    EXPECT_EQ(heap->arrayLength(blob), 20u);
}

TEST_F(RcCollectorTest, SameSizedBlocksRecycleLifo)
{
    Addr d1 = node(), d2 = node();
    EXPECT_EQ(rc->onAllocationFailure(), GcOutcome::Major);
    ASSERT_EQ(rc->freeQueueBlocks(), 2u);

    // Whichever block the drain freed last comes back first.
    Addr first = node();
    Addr second = node();
    EXPECT_NE(first, second);
    EXPECT_TRUE((first == d1 && second == d2)
                || (first == d2 && second == d1));
    EXPECT_EQ(rc->freeQueueBlocks(), 0u);
}

TEST_F(RcCollectorTest, LargerBlockSplitsAndBinsTheRemainder)
{
    // Free one large byte array, then satisfy a small allocation
    // from it: the head of the block is reused and the tail goes
    // back into the bins as a filler-covered remainder.
    Addr big = rc->allocate(klasses.byteArrayId(), 4096);
    ASSERT_NE(big, 0u);
    EXPECT_EQ(rc->onAllocationFailure(), GcOutcome::Major);
    ASSERT_EQ(rc->freeQueueBlocks(), 1u);

    const std::uint64_t big_words =
        heap->sizeWordsFor(klasses.byteArrayId(), 4096);
    const std::uint64_t node_words = heap->sizeWordsFor(nodeId, 0);
    ASSERT_GT(big_words, node_words + 1);

    Addr fresh = node();
    EXPECT_EQ(fresh, big) << "split must serve from the block head";
    EXPECT_EQ(rc->freeQueueBlocks(), 1u) << "remainder must be binned";

    // An allocation sized exactly to the remainder takes the tail.
    const std::uint64_t rem_words = big_words - node_words;
    const std::uint64_t header_words =
        heap->sizeWordsFor(klasses.byteArrayId(), 0);
    ASSERT_GT(rem_words, header_words);
    Addr tail = rc->allocate(klasses.byteArrayId(),
                             (rem_words - header_words) * 8);
    EXPECT_EQ(tail, big + node_words * 8);
    EXPECT_EQ(rc->freeQueueBlocks(), 0u);
    checkHeapIntegrity(*heap);
}

TEST_F(RcCollectorTest, BumpAllocationIsTheColdPath)
{
    EXPECT_EQ(rc->freeQueueBlocks(), 0u);
    Addr obj = node();
    EXPECT_EQ(heap->spaceOf(obj), Space::Old)
        << "RC allocation is non-moving: everything lives in Old";
}

TEST_F(RcCollectorTest, CapabilitiesMatchTheRcPrimitives)
{
    CapabilitySet caps = rc->capabilities();
    EXPECT_TRUE(caps.canOffload(PrimKind::RefCount));
    EXPECT_TRUE(caps.canOffload(PrimKind::Copy));
    EXPECT_TRUE(caps.canOffload(PrimKind::ScanPush));
    EXPECT_FALSE(caps.canOffload(PrimKind::BitmapCount));
    EXPECT_FALSE(caps.canOffload(PrimKind::Search));
    EXPECT_FALSE(caps.hasCardTable) << "no generational write barrier";
    EXPECT_TRUE(caps.hasMarkBitmap) << "the backup pass marks";
}
