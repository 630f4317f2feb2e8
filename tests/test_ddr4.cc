/**
 * @file
 * Tests for the DDR4 memory-system model.
 */

#include <gtest/gtest.h>

#include "finish_into.hh"
#include "mem/ddr4.hh"
#include "sim/event_queue.hh"

using namespace charon;
using charon::sim::EventQueue;
using charon::sim::JoinPool;
using charon::sim::Tick;
using charon::test::finishInto;

namespace
{

mem::StreamRequest
seqRead(std::uint64_t bytes, double max_rate = 0)
{
    mem::StreamRequest req;
    req.addr = 0;
    req.bytes = bytes;
    req.write = false;
    req.pattern = mem::AccessPattern::Sequential;
    req.maxRate = max_rate;
    req.granularity = 64;
    return req;
}

} // namespace

TEST(Ddr4, PeakRateMatchesTable2)
{
    EventQueue eq;
    sim::Ddr4Config cfg;
    mem::Ddr4Memory ddr(eq, cfg);
    EXPECT_NEAR(sim::bytesPerTickToGbPerSec(ddr.peakRate()), 34.0, 1e-9);
}

TEST(Ddr4, UnlimitedSequentialStreamRunsNearPeak)
{
    EventQueue eq;
    mem::Ddr4Memory ddr(eq, sim::Ddr4Config{});
    JoinPool joins(eq);
    Tick done = 0;
    ddr.stream(seqRead(34'000'000), finishInto(joins, done)); // 34 MB
    eq.run();
    // At 0.90 x 34 GB/s, 34 MB takes ~1.11 ms.
    double ms = sim::ticksToMs(done);
    EXPECT_GT(ms, 1.0);
    EXPECT_LT(ms, 1.25);
}

TEST(Ddr4, RandomPatternIsSlowerThanSequential)
{
    EventQueue eq;
    mem::Ddr4Memory ddr(eq, sim::Ddr4Config{});
    JoinPool joins(eq);
    Tick seq_done = 0;
    ddr.stream(seqRead(1'000'000), finishInto(joins, seq_done));
    eq.run();

    EventQueue eq2;
    mem::Ddr4Memory ddr2(eq2, sim::Ddr4Config{});
    JoinPool joins2(eq2);
    auto req = seqRead(1'000'000);
    req.pattern = mem::AccessPattern::Random;
    Tick rnd_done = 0;
    ddr2.stream(req, finishInto(joins2, rnd_done));
    eq2.run();

    EXPECT_GT(rnd_done, seq_done);
}

TEST(Ddr4, RequesterRateCapBinds)
{
    EventQueue eq;
    mem::Ddr4Memory ddr(eq, sim::Ddr4Config{});
    JoinPool joins(eq);
    // Cap at 1 GB/s: 1 MB should take ~1 ms even though DRAM is idle.
    Tick done = 0;
    ddr.stream(seqRead(1'000'000, sim::gbPerSecToBytesPerTick(1.0)),
               finishInto(joins, done));
    eq.run();
    EXPECT_NEAR(sim::ticksToMs(done), 1.0, 0.05);
}

TEST(Ddr4, LatencyOrdering)
{
    EventQueue eq;
    mem::Ddr4Memory ddr(eq, sim::Ddr4Config{});
    auto seq = ddr.latency(mem::AccessPattern::Sequential);
    auto str = ddr.latency(mem::AccessPattern::Strided);
    auto rnd = ddr.latency(mem::AccessPattern::Random);
    EXPECT_LT(seq, str);
    EXPECT_LT(str, rnd);
    // Random latency should be in the 60-90 ns ballpark.
    EXPECT_GT(sim::ticksToNs(rnd), 55.0);
    EXPECT_LT(sim::ticksToNs(rnd), 95.0);
}

TEST(Ddr4, EnergyProportionalToBytes)
{
    EventQueue eq;
    sim::Ddr4Config cfg;
    mem::Ddr4Memory ddr(eq, cfg);
    ddr.stream(seqRead(1000), nullptr);
    eq.run();
    EXPECT_DOUBLE_EQ(ddr.totalBytes(), 1000.0);
    EXPECT_DOUBLE_EQ(ddr.energyPj(), 1000.0 * 8 * cfg.energyPjPerBit);
}

TEST(Ddr4, TwoStreamsContend)
{
    EventQueue eq;
    mem::Ddr4Memory ddr(eq, sim::Ddr4Config{});
    JoinPool joins(eq);
    Tick alone = 0;
    ddr.stream(seqRead(10'000'000), finishInto(joins, alone));
    eq.run();

    EventQueue eq2;
    mem::Ddr4Memory ddr2(eq2, sim::Ddr4Config{});
    JoinPool joins2(eq2);
    Tick a = 0, b = 0;
    ddr2.stream(seqRead(10'000'000), finishInto(joins2, a));
    ddr2.stream(seqRead(10'000'000), finishInto(joins2, b));
    eq2.run();
    // Two equal streams should each take ~2x the solo time.
    EXPECT_NEAR(static_cast<double>(a) / static_cast<double>(alone), 2.0,
                0.1);
    EXPECT_NEAR(static_cast<double>(b) / static_cast<double>(alone), 2.0,
                0.1);
}

TEST(Ddr4, UtilizationReflectsLoad)
{
    EventQueue eq;
    mem::Ddr4Memory ddr(eq, sim::Ddr4Config{});
    JoinPool joins(eq);
    Tick done = 0;
    ddr.stream(seqRead(1'000'000), finishInto(joins, done));
    eq.run();
    // The bus is fully occupied (useful data + row-miss overhead).
    EXPECT_NEAR(ddr.utilization(done), 1.0, 0.02);
}
