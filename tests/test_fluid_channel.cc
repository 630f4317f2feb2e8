/**
 * @file
 * Tests for the fluid bandwidth-sharing channel: single flows, fair
 * sharing, rate caps, reentrant starts, a completion timer re-keyed
 * by staggered arrivals, and accounting.  Every flow completes into
 * a join from a JoinPool, as the memory models' flows do.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "finish_into.hh"
#include "mem/fluid_channel.hh"
#include "sim/event_queue.hh"
#include "sim/join.hh"

using charon::mem::FluidChannel;
using charon::sim::EventQueue;
using charon::sim::JoinPool;
using charon::sim::Tick;
using charon::test::finishInto;

TEST(FluidChannel, SingleFlowAtCapacity)
{
    EventQueue eq;
    FluidChannel ch(eq, "ch", 1.0); // 1 byte/tick
    JoinPool joins(eq);
    Tick done = 0;
    ch.startFlow(1000, 0, finishInto(joins, done));
    eq.run();
    EXPECT_EQ(done, 1000u);
}

TEST(FluidChannel, FlowRespectsOwnCap)
{
    EventQueue eq;
    FluidChannel ch(eq, "ch", 1.0);
    JoinPool joins(eq);
    Tick done = 0;
    ch.startFlow(1000, 0.5, finishInto(joins, done));
    eq.run();
    EXPECT_EQ(done, 2000u);
}

TEST(FluidChannel, TwoEqualFlowsShareFairly)
{
    EventQueue eq;
    FluidChannel ch(eq, "ch", 1.0);
    JoinPool joins(eq);
    Tick a = 0, b = 0;
    ch.startFlow(500, 0, finishInto(joins, a));
    ch.startFlow(500, 0, finishInto(joins, b));
    eq.run();
    // Each gets 0.5 B/tick: both finish at 1000.
    EXPECT_EQ(a, 1000u);
    EXPECT_EQ(b, 1000u);
}

TEST(FluidChannel, ShortFlowFreesBandwidthForLongFlow)
{
    EventQueue eq;
    FluidChannel ch(eq, "ch", 1.0);
    JoinPool joins(eq);
    Tick small = 0, big = 0;
    ch.startFlow(100, 0, finishInto(joins, small));
    ch.startFlow(900, 0, finishInto(joins, big));
    eq.run();
    // Phase 1: both at 0.5 B/t until small's 100 B drain at t=200.
    EXPECT_EQ(small, 200u);
    // Big has 800 left, now at full rate: 200 + 800 = 1000.
    EXPECT_EQ(big, 1000u);
}

TEST(FluidChannel, CappedFlowLeavesResidualToOthers)
{
    EventQueue eq;
    FluidChannel ch(eq, "ch", 1.0);
    JoinPool joins(eq);
    Tick slow = 0, fast = 0;
    // The capped flow can only take 0.2; the other gets 0.8.
    ch.startFlow(200, 0.2, finishInto(joins, slow));
    ch.startFlow(800, 0, finishInto(joins, fast));
    eq.run();
    EXPECT_EQ(slow, 1000u);
    EXPECT_EQ(fast, 1000u);
}

TEST(FluidChannel, LateArrivalSlowsExistingFlow)
{
    EventQueue eq;
    FluidChannel ch(eq, "ch", 1.0);
    JoinPool joins(eq);
    Tick first = 0, second = 0;
    ch.startFlow(1000, 0, finishInto(joins, first));
    eq.schedule(500, [&] {
        ch.startFlow(250, 0, finishInto(joins, second));
    });
    eq.run();
    // First runs alone for 500 ticks (500 B), then shares: the
    // newcomer's 250 B at 0.5 B/t finish at t=1000, after which the
    // first drains its remaining 250 B at full rate by t=1250.
    EXPECT_EQ(second, 1000u);
    EXPECT_EQ(first, 1250u);
}

TEST(FluidChannel, StaggeredArrivalsReKeyOneTimer)
{
    // Eight flows arrive one tick apart on a 840 B/tick channel, so
    // every fair share 840/n (n = 1..8) is an integer and the whole
    // schedule is exact.  Each arrival re-keys the channel's pending
    // completion timer: to ticks 6, 8, 9, 10, 10, 10, 9, 8 (two
    // same-tick re-keys at t=4 and t=5).  Flow k has consumed
    // sum(840/n, n = k+1..7) by t=7, when all eight share 105 B/tick;
    // its size leaves it r_k bytes, chosen so one flow drains per tick:
    //
    //   flow  size  used by t=7  left  finish
    //      7   105            0   105     8   (8 flows at 105)
    //      6   345          120   225     9   (7 at 120)
    //      5   625          260   365    10   (6 at 140)
    //      4   961          428   533    11   (5 at 168)
    //      3  1381          638   743    12   (4 at 210)
    //      2  1941          918  1023    13   (3 at 280)
    //      1  2781         1338  1443    14   (2 at 420)
    //      0  4461         2178  2283    15   (1 at 840)
    //
    // No flow can drain before t=7: the smallest projected finish
    // after any arrival is 2.875 ticks away (flow 6 at t=6).
    EventQueue eq;
    FluidChannel ch(eq, "ch", 840.0);
    JoinPool joins(eq);
    const std::uint64_t size[8] = {4461, 2781, 1941, 1381,
                                   961,  625,  345,  105};
    Tick finish[8] = {};
    for (int k = 0; k < 8; ++k) {
        eq.schedule(static_cast<Tick>(k), [&, k] {
            ch.startFlow(size[k], 0, finishInto(joins, finish[k]));
            // The arrivals still to come plus one completion timer:
            // the re-key left nothing behind.
            EXPECT_EQ(eq.pendingEvents(), 8u - static_cast<unsigned>(k));
        });
    }
    eq.run();
    for (int k = 0; k < 8; ++k)
        EXPECT_EQ(finish[k], static_cast<Tick>(15 - k)) << "flow " << k;
    EXPECT_EQ(ch.activeFlows(), 0u);
    EXPECT_TRUE(eq.empty());
}

TEST(FluidChannel, ZeroByteFlowCompletesImmediately)
{
    EventQueue eq;
    FluidChannel ch(eq, "ch", 1.0);
    JoinPool joins(eq);
    Tick done = 12345;
    ch.startFlow(0, 0, finishInto(joins, done));
    eq.run();
    EXPECT_EQ(done, 0u);
    EXPECT_EQ(eq.executedEvents(), 1u); // one same-tick event
}

TEST(FluidChannel, CallbackMayStartNextFlow)
{
    EventQueue eq;
    FluidChannel ch(eq, "ch", 2.0);
    JoinPool joins(eq);
    Tick done2 = 0;
    ch.startFlow(100, 0, joins.acquire(1, [&](Tick) {
        ch.startFlow(100, 0, finishInto(joins, done2));
    }));
    eq.run();
    EXPECT_EQ(done2, 100u); // 50 + 50
}

TEST(FluidChannel, AccountsTotalBytes)
{
    EventQueue eq;
    FluidChannel ch(eq, "ch", 1.0);
    ch.startFlow(300, 0, nullptr);
    ch.startFlow(200, 0, nullptr);
    eq.run();
    EXPECT_DOUBLE_EQ(ch.totalBytes(), 500.0);
}

TEST(FluidChannel, UtilizationIntegralMatchesBusyTime)
{
    EventQueue eq;
    FluidChannel ch(eq, "ch", 1.0);
    ch.startFlow(100, 0.5, nullptr); // 200 ticks at 50% => 100 utilized
    eq.run();
    EXPECT_NEAR(ch.utilizedTicks(), 100.0, 1.0);
}

TEST(FluidChannel, ManyConcurrentFlowsAllFinish)
{
    EventQueue eq;
    FluidChannel ch(eq, "ch", 10.0);
    JoinPool joins(eq);
    int finished = 0;
    for (int i = 0; i < 64; ++i)
        ch.startFlow(100 + i, 0, joins.acquire(1, [&](Tick) {
            ++finished;
        }));
    eq.run();
    EXPECT_EQ(finished, 64);
    EXPECT_EQ(ch.activeFlows(), 0u);
}

TEST(FluidChannel, StaggeredArrivalsAllFinish)
{
    EventQueue eq;
    FluidChannel ch(eq, "ch", 3.0);
    JoinPool joins(eq);
    std::vector<Tick> completions;
    for (Tick t = 0; t < 50; ++t) {
        eq.schedule(t * 10, [&] {
            ch.startFlow(97, 1.0, joins.acquire(1, [&](Tick fin) {
                completions.push_back(fin);
            }));
        });
    }
    eq.run();
    EXPECT_EQ(completions.size(), 50u);
    for (std::size_t i = 1; i < completions.size(); ++i)
        EXPECT_GE(completions[i], completions[i - 1]);
}
