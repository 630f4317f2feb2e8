/**
 * @file
 * Unit tests for the pooled countdown join: fan-in with the latest
 * arrival tick, early fire on a posted part, recycle-before-invoke
 * reentrancy, the delay a join carries, completion into a parent
 * join, and arriveAt().
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/join.hh"

using charon::sim::arriveAt;
using charon::sim::Delay;
using charon::sim::EventQueue;
using charon::sim::FireAfter;
using charon::sim::Join;
using charon::sim::JoinPool;
using charon::sim::Tick;

TEST(Join, FanInFiresOnceWithLatestArrival)
{
    EventQueue eq;
    JoinPool pool(eq);
    std::vector<Tick> fires;
    Join *j = pool.acquire(3, [&](Tick t) { fires.push_back(t); });
    j->arrive(5);
    j->arrive(20);
    EXPECT_TRUE(fires.empty());
    j->arrive(10); // last to arrive, not latest in time
    EXPECT_EQ(fires, (std::vector<Tick>{20}));
}

TEST(Join, ZeroDelayCompletesInline)
{
    EventQueue eq;
    JoinPool pool(eq);
    Tick fired = 0;
    Join *j = pool.acquire(2, [&](Tick t) { fired = t; }, Delay(0));
    j->arrive(4);
    j->arrive(9);
    EXPECT_EQ(fired, 9u);
    EXPECT_EQ(eq.pendingEvents(), 0u);
}

TEST(Join, EarlyFireFiresOnceAndStaysOutOfThePool)
{
    EventQueue eq;
    JoinPool pool(eq);
    std::vector<Tick> fires;
    Join *j = pool.acquire(
        3, [&](Tick t) { fires.push_back(t); }, Delay(), FireAfter(2));
    j->arrive(7);
    j->arrive(4);
    EXPECT_EQ(fires, (std::vector<Tick>{7}));

    // The fired join still waits for its third part, so the pool
    // must hand out a different one meanwhile.
    Join *other = pool.acquire(1, nullptr);
    EXPECT_NE(other, j);
    other->arrive(0);

    j->arrive(9);
    EXPECT_EQ(fires, (std::vector<Tick>{7})) << "fired twice";
    // Now every part has arrived and the join is back in the pool
    // (the free list is LIFO).
    EXPECT_EQ(pool.acquire(1, nullptr), j);
}

TEST(Join, RecycledBeforeItsCallbackRuns)
{
    EventQueue eq;
    JoinPool pool(eq);
    Join *second = nullptr;
    Tick second_fired = 0;
    Join *first = pool.acquire(2, [&](Tick) {
        // The finished join is already free: a reentrant fan-out
        // from the callback gets it straight back.
        second = pool.acquire(1, [&](Tick t) { second_fired = t; });
    });
    first->arrive(30);
    first->arrive(3);
    ASSERT_EQ(second, first);
    // A recycled join starts from a clean countdown and arrival
    // maximum, not the 30 its previous use saw.
    second->arrive(8);
    EXPECT_EQ(second_fired, 8u);
}

TEST(Join, DelayedJoinCompletesOnceBehindEarlierSameTickEvents)
{
    EventQueue eq;
    JoinPool pool(eq);
    std::vector<int> order;
    std::vector<Tick> fires;
    Join *j = pool.acquire(2,
                           [&](Tick t) {
                               fires.push_back(t);
                               order.push_back(2);
                           },
                           Delay(10));
    // Scheduled before the join fires, at the tick it completes at.
    eq.schedule(25, [&] { order.push_back(1); });
    j->arrive(15);
    j->arrive(5);
    EXPECT_TRUE(fires.empty()) << "a delayed join completed inline";
    EXPECT_EQ(eq.pendingEvents(), 2u) << "one completion event";
    eq.run();
    EXPECT_EQ(fires, (std::vector<Tick>{25}));
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(eq.executedEvents(), 2u);
    // The completion event released the join.
    EXPECT_EQ(pool.acquire(1, nullptr), j);
}

TEST(Join, ExtraArrivalWhileTheDelayedCompletionIsPendingPanics)
{
    EventQueue eq;
    JoinPool pool(eq);
    Join *j = pool.acquire(1, nullptr, Delay(5));
    j->arrive(1);
    // Every part has arrived; the pending event holds the join, but
    // it takes no further arrivals.
    EXPECT_DEATH(j->arrive(2), "recycled join");
}

TEST(Join, DelayedEarlyFireRecyclesAfterItsEventAndItsLastPart)
{
    EventQueue eq;
    JoinPool pool(eq);
    std::vector<Tick> fires;
    auto record = [&](Tick t) { fires.push_back(t); };

    // The completion event runs before the posted part arrives.
    Join *j = pool.acquire(2, record, Delay(6), FireAfter(1));
    j->arrive(4);
    eq.run();
    EXPECT_EQ(fires, (std::vector<Tick>{10}));
    Join *other = pool.acquire(1, nullptr);
    EXPECT_NE(other, j) << "recycled before its posted part arrived";
    other->arrive(0);
    j->arrive(12);
    EXPECT_EQ(fires, (std::vector<Tick>{10})) << "fired twice";
    EXPECT_EQ(pool.acquire(1, nullptr), j);
    j->arrive(12);
    fires.clear();

    // The posted part arrives before the completion event runs.
    j = pool.acquire(2, record, Delay(6), FireAfter(1));
    j->arrive(20);
    j->arrive(21);
    other = pool.acquire(1, nullptr);
    EXPECT_NE(other, j) << "recycled before its completion event ran";
    other->arrive(21);
    eq.run();
    EXPECT_EQ(fires, (std::vector<Tick>{26}));
    EXPECT_EQ(pool.acquire(1, nullptr), j);
}

TEST(Join, CompletesIntoAParentJoin)
{
    EventQueue eq;
    JoinPool pool(eq);
    Tick fired = 0;
    Join *parent = pool.acquire(2, [&](Tick t) { fired = t; });
    Join *child = pool.acquire(1, parent, Delay(3));
    child->arrive(4);
    parent->arrive(2);
    EXPECT_EQ(fired, 0u);
    eq.run();
    // The child arrives on the parent at 4 + 3, the latest arrival.
    EXPECT_EQ(fired, 7u);

    // A child completing into a null parent completes into nothing.
    Join *orphan = pool.acquire(1, nullptr, Delay(2));
    orphan->arrive(8);
    eq.run();
    EXPECT_EQ(fired, 7u);
    EXPECT_EQ(pool.acquire(1, nullptr), orphan);
}

TEST(Join, ArriveAtAddsExactlyOneEventAndAcceptsANullJoin)
{
    EventQueue eq;
    JoinPool pool(eq);
    eq.schedule(5, [] {});
    eq.run();
    Tick fired = 0;
    Join *j = pool.acquire(1, [&](Tick t) { fired = t; });
    arriveAt(eq, j, eq.now());
    EXPECT_EQ(fired, 0u) << "arriveAt at now() arrived inline";
    EXPECT_EQ(eq.pendingEvents(), 1u);
    eq.run();
    EXPECT_EQ(fired, 5u);
    EXPECT_EQ(eq.executedEvents(), 2u);

    arriveAt(eq, nullptr, 12);
    EXPECT_EQ(eq.pendingEvents(), 1u);
    eq.run();
    EXPECT_EQ(eq.executedEvents(), 3u);
    EXPECT_EQ(eq.now(), 12u);
}
