/**
 * @file
 * Unit tests for the pooled countdown join: fan-in with the latest
 * arrival tick, early fire on a posted part, recycle-before-invoke
 * reentrancy, and null-preserving callback wrapping.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/join.hh"

using charon::sim::Function;
using charon::sim::Join;
using charon::sim::JoinPool;
using charon::sim::Tick;

TEST(Join, FanInFiresOnceWithLatestArrival)
{
    JoinPool pool;
    std::vector<Tick> fires;
    Join *j = pool.acquire(3, [&](Tick t) { fires.push_back(t); });
    j->arrive(5);
    j->arrive(20);
    EXPECT_TRUE(fires.empty());
    j->arrive(10); // last to arrive, not latest in time
    EXPECT_EQ(fires, (std::vector<Tick>{20}));
}

TEST(Join, EarlyFireFiresOnceAndStaysOutOfThePool)
{
    JoinPool pool;
    std::vector<Tick> fires;
    Join *j = pool.acquire(
        3, [&](Tick t) { fires.push_back(t); }, /*fire_after=*/2);
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
    JoinPool pool;
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

TEST(Join, WrapKeepsANullCallbackNull)
{
    Function<void(Tick), 48> none;
    EXPECT_FALSE(JoinPool::wrap(std::move(none)));

    Tick seen = 0;
    Function<void(Tick), 48> some = [&](Tick t) { seen = t; };
    Join::Callback wrapped = JoinPool::wrap(std::move(some));
    ASSERT_TRUE(wrapped);
    wrapped(12);
    EXPECT_EQ(seen, 12u);

    // A join over a wrapped null completes without calling anything.
    JoinPool pool;
    Function<void(Tick), 48> null_again;
    Join *j = pool.acquire(1, JoinPool::wrap(std::move(null_again)));
    j->arrive(1);
    EXPECT_EQ(pool.acquire(1, nullptr), j);
}
