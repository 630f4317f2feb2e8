/**
 * @file
 * Unit tests for the discrete-event kernel: ordering, determinism,
 * cancellation, re-keying (also of a running event by itself),
 * stale-id rejection, bounded runs, and reentrancy.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/rng.hh"

using charon::sim::EventId;
using charon::sim::EventQueue;
using charon::sim::Tick;

TEST(EventQueue, StartsAtTimeZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(42, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, ScheduleInIsRelative)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(100, [&] {
        eq.scheduleIn(50, [&] { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, RunUntilStopsEarly)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(1000, [&] { ++fired; });
    auto executed = eq.run(500);
    EXPECT_EQ(executed, 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 500u);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, DescheduleCancelsPendingEvent)
{
    EventQueue eq;
    bool fired = false;
    auto id = eq.schedule(10, [&] { fired = true; });
    EXPECT_TRUE(eq.deschedule(id));
    eq.run();
    EXPECT_FALSE(fired);
}

TEST(EventQueue, DescheduleOfFiredEventReturnsFalse)
{
    EventQueue eq;
    auto id = eq.schedule(10, [] {});
    eq.run();
    EXPECT_FALSE(eq.deschedule(id));
}

TEST(EventQueue, DoubleDescheduleReturnsFalse)
{
    EventQueue eq;
    auto id = eq.schedule(10, [] {});
    EXPECT_TRUE(eq.deschedule(id));
    EXPECT_FALSE(eq.deschedule(id));
    eq.run();
}

TEST(EventQueue, DescheduleOfUnknownIdReturnsFalse)
{
    EventQueue eq;
    EXPECT_FALSE(eq.deschedule(0));
    EXPECT_FALSE(eq.deschedule(12345));
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 100)
            eq.scheduleIn(1, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(depth, 100);
    EXPECT_EQ(eq.now(), 99u);
}

TEST(EventQueue, PendingEventCountTracksScheduleAndCancel)
{
    EventQueue eq;
    auto a = eq.schedule(10, [] {});
    eq.schedule(20, [] {});
    EXPECT_EQ(eq.pendingEvents(), 2u);
    eq.deschedule(a);
    EXPECT_EQ(eq.pendingEvents(), 1u);
    eq.run();
    EXPECT_EQ(eq.pendingEvents(), 0u);
}

TEST(EventQueue, StepExecutesExactlyOne)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] { ++fired; });
    eq.schedule(2, [&] { ++fired; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, RunReturnsExecutedCount)
{
    EventQueue eq;
    for (Tick t = 0; t < 25; ++t)
        eq.schedule(t, [] {});
    EXPECT_EQ(eq.run(), 25u);
}

TEST(EventQueue, CancelledEventDoesNotBlockSameTickSiblings)
{
    EventQueue eq;
    std::vector<int> order;
    auto a = eq.schedule(5, [&] { order.push_back(1); });
    eq.schedule(5, [&] { order.push_back(2); });
    eq.deschedule(a);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{2}));
}

TEST(EventQueue, IdsAreNonzeroAndDistinctWhileLive)
{
    EventQueue eq;
    std::set<EventId> ids;
    for (int i = 0; i < 1000; ++i) {
        EventId id = eq.schedule(static_cast<Tick>(i), [] {});
        EXPECT_NE(id, 0u);
        EXPECT_TRUE(ids.insert(id).second);
    }
    eq.run();
}

TEST(EventQueue, RescheduleMovesAPendingEventEarlierOrLater)
{
    EventQueue eq;
    std::vector<std::pair<int, Tick>> fired;
    auto a = eq.schedule(100, [&] { fired.emplace_back(1, eq.now()); });
    auto b = eq.schedule(10, [&] { fired.emplace_back(2, eq.now()); });
    eq.schedule(50, [&] { fired.emplace_back(3, eq.now()); });
    EXPECT_TRUE(eq.reschedule(a, 20)); // earlier
    EXPECT_TRUE(eq.reschedule(b, 70)); // later
    EXPECT_EQ(eq.pendingEvents(), 3u);
    eq.run();
    EXPECT_EQ(fired, (std::vector<std::pair<int, Tick>>{
                         {1, 20}, {3, 50}, {2, 70}}));
    EXPECT_EQ(eq.executedEvents(), 3u);
}

TEST(EventQueue, SameTickRescheduleFiresBehindEarlierSiblings)
{
    // A re-key takes a fresh sequence number: the event moves behind
    // the siblings scheduled before the re-key and stays ahead of
    // those scheduled after it, exactly as a cancel plus a fresh
    // schedule would.
    EventQueue eq;
    std::vector<int> order;
    auto a = eq.schedule(20, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.schedule(20, [&] { order.push_back(3); });
    EXPECT_TRUE(eq.reschedule(a, 20));
    eq.schedule(20, [&] { order.push_back(4); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{2, 3, 1, 4}));
}

TEST(EventQueue, RescheduleKeepsTheId)
{
    EventQueue eq;
    bool fired = false;
    auto id = eq.schedule(10, [&] { fired = true; });
    EXPECT_TRUE(eq.reschedule(id, 30));
    EXPECT_TRUE(eq.reschedule(id, 5));
    EXPECT_TRUE(eq.deschedule(id));
    eq.run();
    EXPECT_FALSE(fired);
    EXPECT_EQ(eq.executedEvents(), 0u);
}

TEST(EventQueue, RescheduleFromInsideACallback)
{
    EventQueue eq;
    std::vector<Tick> seen;
    auto late = eq.schedule(1000, [&] { seen.push_back(eq.now()); });
    eq.schedule(10, [&] { EXPECT_TRUE(eq.reschedule(late, 10)); });
    eq.schedule(10, [&] { seen.push_back(0); });
    eq.run();
    // Re-keyed to the running tick, it fires after the sibling that
    // was already queued for it.
    EXPECT_EQ(seen, (std::vector<Tick>{0, 10}));
}

TEST(EventQueue, StaleIdsMatchNothing)
{
    EventQueue eq;
    // Fired.
    auto fired = eq.schedule(1, [] {});
    eq.run();
    EXPECT_FALSE(eq.reschedule(fired, 5));
    EXPECT_FALSE(eq.deschedule(fired));
    // Cancelled.
    auto cancelled = eq.schedule(10, [] {});
    EXPECT_TRUE(eq.deschedule(cancelled));
    EXPECT_FALSE(eq.reschedule(cancelled, 20));
    EXPECT_FALSE(eq.deschedule(cancelled));
    // The old id of a recycled slot: the new event takes the freed
    // slot under a new generation, and the old id cannot touch it.
    auto old_id = eq.schedule(50, [] {});
    EXPECT_TRUE(eq.deschedule(old_id));
    bool recycled_fired = false;
    auto new_id = eq.schedule(60, [&] { recycled_fired = true; });
    EXPECT_NE(new_id, old_id);
    EXPECT_EQ(static_cast<std::uint32_t>(new_id),
              static_cast<std::uint32_t>(old_id))
        << "the new event should reuse the freed slot";
    EXPECT_FALSE(eq.reschedule(old_id, 70));
    EXPECT_FALSE(eq.deschedule(old_id));
    EXPECT_EQ(eq.pendingEvents(), 1u);
    eq.run();
    EXPECT_TRUE(recycled_fired);
    EXPECT_EQ(eq.now(), 60u);
}

TEST(EventQueue, RunningEventReArmsItself)
{
    // A callback re-keys its own event: reschedule() of the running
    // id succeeds, and the event fires again at its new tick under the
    // same id, where a schedule() made at the re-key would have put
    // it: behind the same-tick events scheduled before the re-key,
    // ahead of those scheduled after it.  Before the re-key the
    // running event is not pending; from the re-key on it is, and
    // counts once.
    EventQueue eq;
    std::vector<std::string> order;
    EventId self = 0;
    int fires = 0;
    self = eq.schedule(10, [&] {
        order.push_back("self@" + std::to_string(eq.now()));
        if (++fires == 1) {
            EXPECT_FALSE(eq.deschedule(self)) << "running, not re-armed";
            EXPECT_EQ(eq.pendingEvents(), 0u);
            EXPECT_TRUE(eq.empty());
            eq.schedule(20, [&] { order.push_back("before"); });
            EXPECT_EQ(eq.pendingEvents(), 1u);
            EXPECT_TRUE(eq.reschedule(self, 20));
            EXPECT_EQ(eq.pendingEvents(), 2u);
            eq.schedule(20, [&] { order.push_back("after"); });
            EXPECT_EQ(eq.pendingEvents(), 3u);
            return;
        }
        // Second life, same id: re-arm again, then cancel.  The
        // cancel takes effect, and the id goes stale, at once.
        EXPECT_EQ(eq.pendingEvents(), 1u); // "after"
        EXPECT_TRUE(eq.reschedule(self, 30));
        EXPECT_EQ(eq.pendingEvents(), 2u);
        EXPECT_TRUE(eq.deschedule(self));
        EXPECT_EQ(eq.pendingEvents(), 1u);
        EXPECT_FALSE(eq.deschedule(self));
        EXPECT_FALSE(eq.reschedule(self, 40));
    });
    EXPECT_EQ(eq.run(10), 1u);
    EXPECT_EQ(eq.pendingEvents(), 3u) << "the re-armed event counts once";
    eq.run();
    EXPECT_EQ(order, (std::vector<std::string>{"self@10", "before",
                                               "self@20", "after"}));
    EXPECT_EQ(fires, 2);
    EXPECT_EQ(eq.executedEvents(), 4u);
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_TRUE(eq.empty());
    EXPECT_FALSE(eq.deschedule(self));
    EXPECT_FALSE(eq.reschedule(self, 50));
}

TEST(EventQueue, RunningTheQueueFromACallbackPanics)
{
    EventQueue eq;
    eq.schedule(1, [&] { eq.step(); });
    eq.schedule(2, [] {});
    EXPECT_DEATH(eq.run(), "inside a callback");
}

TEST(EventQueue, RescheduleIntoThePastPanics)
{
    EventQueue eq;
    auto id = eq.schedule(100, [] {});
    eq.schedule(50, [] {});
    eq.run(50);
    EXPECT_DEATH(eq.reschedule(id, 10), "before now");
}

TEST(EventQueue, RandomizedStressMatchesSortedOracle)
{
    // Adversarial mix of schedules (including reentrant ones from
    // inside callbacks), cancellations, re-keys (some from inside
    // callbacks, some aimed at fired, running or cancelled events),
    // and bounded runs.  The heap's firing order must match the
    // specification oracle exactly: every event fires at its own
    // tick, globally ordered by (when, insertion seq), where a
    // re-key counts as a cancel plus a fresh schedule at the moment
    // it is made, and a re-key of the running event from inside its
    // own callback counts as a fresh schedule of that callback under
    // the same id.  The mix grows and shrinks the heap, removes and
    // re-keys nodes in its middle, recycles slots under new
    // generations, and builds same-tick FIFO chains.
    for (std::uint64_t seed : {1ull, 42ull, 0xDEADull, 31337ull}) {
        charon::sim::Rng rng(seed);
        EventQueue eq;

        /** One scheduled callback; its oracle key moves on re-key. */
        struct Ev
        {
            EventId id = 0;
            Tick when = 0;
            std::uint64_t key = 0;
            bool done = false; ///< fired, running or cancelled
        };
        std::vector<Ev> evs;
        std::uint64_t next_key = 0;
        std::vector<std::pair<Tick, std::uint64_t>> keyed;
        std::set<std::uint64_t> dropped; ///< cancelled or re-keyed away
        std::vector<std::uint64_t> fired;
        std::vector<std::size_t> live; ///< indices into evs
        std::uint64_t rekeys = 0;
        std::uint64_t self_rekeys = 0;
        constexpr std::size_t kIdle = ~std::size_t{0};
        std::size_t running = kIdle; ///< event whose callback runs

        // Re-key event @p e; the running one re-arms, a new schedule
        // of its callback under the same id.
        auto rekey = [&](std::size_t e) {
            const Tick when = eq.now() + rng.below(3000);
            const bool was_pending = !evs[e].done;
            const bool re_arm = e == running && !was_pending;
            EXPECT_EQ(eq.reschedule(evs[e].id, when),
                      was_pending || re_arm)
                << "seed " << seed << " event " << e;
            if (!was_pending && !re_arm)
                return false;
            ++rekeys;
            if (re_arm)
                ++self_rekeys;
            else
                dropped.insert(evs[e].key);
            evs[e].key = next_key++;
            evs[e].when = when;
            evs[e].done = false;
            keyed.emplace_back(when, evs[e].key);
            return true;
        };
        auto rekeyRandom = [&] {
            if (live.empty())
                return;
            const std::size_t i = rng.below(live.size());
            if (!rekey(live[i]))
                live.erase(live.begin() + static_cast<long>(i));
        };

        std::function<void(Tick, int)> scheduleEvent =
            [&](Tick when, int depth) {
                const std::size_t e = evs.size();
                evs.push_back(Ev{0, when, next_key++, false});
                keyed.emplace_back(when, evs[e].key);
                evs[e].id = eq.schedule(when, [&, e, depth] {
                    EXPECT_EQ(eq.now(), evs[e].when) << "seed " << seed;
                    EXPECT_EQ(running, kIdle) << "seed " << seed;
                    running = e;
                    fired.push_back(evs[e].key);
                    evs[e].done = true;
                    if (depth > 0 && rng.chance(0.25))
                        scheduleEvent(eq.now() + rng.below(3000),
                                      depth - 1);
                    if (rng.chance(0.2))
                        rekeyRandom();
                    if (evs[e].done && rng.chance(0.1))
                        rekey(e);
                    running = kIdle;
                });
                live.push_back(e);
            };

        for (int round = 0; round < 40; ++round) {
            const std::uint64_t burst = 1 + rng.below(25);
            for (std::uint64_t i = 0; i < burst; ++i) {
                // Mostly near-future, sometimes far ahead, sometimes
                // exactly "now".
                Tick delta = rng.chance(0.1) ? rng.below(200000)
                                             : rng.below(4000);
                scheduleEvent(eq.now() + delta, 2);
            }
            while (!live.empty() && rng.chance(0.4)) {
                const std::size_t i = rng.below(live.size());
                const std::size_t e = live[i];
                const bool was_pending = !evs[e].done;
                EXPECT_EQ(eq.deschedule(evs[e].id), was_pending)
                    << "seed " << seed << " event " << e;
                if (was_pending) {
                    dropped.insert(evs[e].key);
                    evs[e].done = true;
                }
                live.erase(live.begin() + static_cast<long>(i));
            }
            while (rng.chance(0.5))
                rekeyRandom();
            eq.run(eq.now() + rng.below(8000));
        }
        eq.run();
        EXPECT_TRUE(eq.empty());
        EXPECT_EQ(eq.pendingEvents(), 0u);
        EXPECT_GT(rekeys, 0u) << "seed " << seed;
        EXPECT_GT(self_rekeys, 0u) << "seed " << seed;

        // The oracle: stable specification order over what survived.
        std::vector<std::pair<Tick, std::uint64_t>> expected_events;
        for (const auto &k : keyed) {
            if (dropped.count(k.second) == 0)
                expected_events.push_back(k);
        }
        std::sort(expected_events.begin(), expected_events.end());
        std::vector<std::uint64_t> expected;
        expected.reserve(expected_events.size());
        for (const auto &k : expected_events)
            expected.push_back(k.second);
        EXPECT_EQ(fired, expected) << "seed " << seed;
        EXPECT_EQ(eq.executedEvents(), expected.size())
            << "seed " << seed;
    }
}
