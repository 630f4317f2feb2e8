/**
 * @file
 * Tests for the HMC memory model: routing, locality accounting,
 * internal vs. link bandwidth, latency composition, energy.
 */

#include <gtest/gtest.h>

#include "finish_into.hh"
#include "hmc/hmc.hh"
#include "sim/event_queue.hh"

using namespace charon;
using charon::sim::EventQueue;
using charon::sim::JoinPool;
using charon::sim::Tick;
using charon::test::finishInto;
using hmc::HmcMemory;
using hmc::Origin;

namespace
{

mem::StreamRequest
req(mem::Addr addr, std::uint64_t bytes,
    mem::AccessPattern p = mem::AccessPattern::Sequential,
    double rate = 0, int gran = 256)
{
    mem::StreamRequest r;
    r.addr = addr;
    r.bytes = bytes;
    r.pattern = p;
    r.maxRate = rate;
    r.granularity = gran;
    return r;
}

} // namespace

class HmcTest : public ::testing::Test
{
  protected:
    EventQueue eq;
    sim::HmcConfig cfg;
    HmcMemory hmc{eq, cfg};
    JoinPool joins{eq};

    void
    SetUp() override
    {
        // 256 MiB regions for tests: cube = addr[29:28].
        hmc.setCubeShift(28);
    }

    Tick
    runStream(const Origin &o, const mem::StreamRequest &r)
    {
        Tick done = 0;
        hmc.stream(o, r, finishInto(joins, done));
        eq.run();
        return done;
    }
};

TEST_F(HmcTest, CubeMappingFollowsShift)
{
    EXPECT_EQ(hmc.cubeOf(0), 0);
    EXPECT_EQ(hmc.cubeOf(1ull << 28), 1);
    EXPECT_EQ(hmc.cubeOf(2ull << 28), 2);
    EXPECT_EQ(hmc.cubeOf(3ull << 28), 3);
    EXPECT_EQ(hmc.cubeOf(4ull << 28), 0); // wraps
}

TEST_F(HmcTest, LocalAccessUsesInternalBandwidth)
{
    // A unit on cube 1 streaming cube-1 data sees ~0.9 x 320 GB/s.
    Tick done = runStream(Origin::onCube(1), req(1ull << 28, 200'000'000));
    double secs = sim::ticksToSeconds(done);
    double gbps = 200.0 / 1e3 / secs; // GB over seconds
    EXPECT_NEAR(gbps, 288.0, 10.0);   // 0.9 * 320
    EXPECT_DOUBLE_EQ(hmc.localBytes(), 200'000'000.0);
    EXPECT_DOUBLE_EQ(hmc.remoteBytes(), 0.0);
}

TEST_F(HmcTest, HostAccessIsLimitedByLink)
{
    // The host streaming from cube 0 is capped by the 80 GB/s link
    // (plus header overhead at 64 B granularity: 1.5x -> ~53 GB/s of
    // payload).
    Tick done = runStream(
        Origin::host(),
        req(0, 80'000'000, mem::AccessPattern::Sequential, 0, 64));
    double secs = sim::ticksToSeconds(done);
    double payload_gbps = 80.0 / 1e3 / secs;
    EXPECT_LT(payload_gbps, 56.0);
    EXPECT_GT(payload_gbps, 50.0);
    EXPECT_DOUBLE_EQ(hmc.localBytes(), 0.0);
}

TEST_F(HmcTest, RemoteUnitAccessCrossesTwoLinks)
{
    // Unit on cube 1 accessing cube 2: both spoke links occupied.
    runStream(Origin::onCube(1), req(2ull << 28, 1'000'000));
    EXPECT_DOUBLE_EQ(hmc.localBytes(), 0.0);
    EXPECT_GT(hmc.linkBytes(), 2.0 * 1'000'000);
}

TEST_F(HmcTest, StreamSpanningRegionsSplitsAcrossCubes)
{
    // 32 MiB starting 16 MiB below a region boundary touches two
    // cubes evenly.
    mem::Addr start = (1ull << 28) - (16ull << 20);
    runStream(Origin::onCube(0), req(start, 32ull << 20));
    // Half local to cube 0, half remote on cube 1.
    EXPECT_NEAR(hmc.localBytes(), 16.0 * (1 << 20), 1.0);
    EXPECT_NEAR(hmc.remoteBytes(), 16.0 * (1 << 20), 1.0);
}

TEST_F(HmcTest, LatencyGrowsWithHops)
{
    auto local = hmc.latency(Origin::onCube(1), 1ull << 28,
                             mem::AccessPattern::Sequential);
    auto one_hop = hmc.latency(Origin::onCube(0), 1ull << 28,
                               mem::AccessPattern::Sequential);
    auto two_hop = hmc.latency(Origin::onCube(1), 2ull << 28,
                               mem::AccessPattern::Sequential);
    EXPECT_LT(local, one_hop);
    EXPECT_LT(one_hop, two_hop);
    EXPECT_EQ(two_hop - local, 4u * cfg.linkLatency());
}

TEST_F(HmcTest, HostLatencyIsWorseThanLocal)
{
    auto host = hmc.latency(Origin::host(), 3ull << 28,
                            mem::AccessPattern::Random);
    EXPECT_EQ(host, hmc.worstLatency());
    EXPECT_GT(host, hmc.localLatency(mem::AccessPattern::Random));
}

TEST_F(HmcTest, RequesterRateCapBinds)
{
    // 1 GB/s cap on 1 MB -> ~1 ms.
    Tick done = runStream(Origin::onCube(0),
                          req(0, 1'000'000, mem::AccessPattern::Sequential,
                              sim::gbPerSecToBytesPerTick(1.0)));
    EXPECT_NEAR(sim::ticksToMs(done), 1.0, 0.05);
}

TEST_F(HmcTest, EnergyIncludesDramAndLinks)
{
    runStream(Origin::onCube(1), req(1ull << 28, 1000));
    double local_only = hmc.energyPj();
    EXPECT_DOUBLE_EQ(local_only, 1000.0 * 8 * cfg.energyPjPerBit);

    runStream(Origin::onCube(1), req(2ull << 28, 1000));
    EXPECT_GT(hmc.energyPj(),
              local_only + 1000.0 * 8 * cfg.energyPjPerBit);
}

TEST_F(HmcTest, ZeroByteStreamCompletes)
{
    Tick done = 1;
    hmc.stream(Origin::host(), req(0, 0), finishInto(joins, done));
    EXPECT_EQ(done, 1u) << "completed inline";
    eq.run();
    EXPECT_EQ(done, 0u);
    EXPECT_EQ(eq.executedEvents(), 1u) << "one same-tick event";
}

TEST_F(HmcTest, SmallGranularityPaysMoreHeaderOverhead)
{
    // Same payload, 16 B granularity pushes 3x bytes over links
    // (16+32)/16 vs (256+32)/256 for 256 B.
    runStream(Origin::host(),
              req(0, 100'000, mem::AccessPattern::Random, 0, 16));
    double small = hmc.linkBytes();
    hmc.resetStats();
    runStream(Origin::host(),
              req(0, 100'000, mem::AccessPattern::Random, 0, 256));
    double big = hmc.linkBytes();
    EXPECT_NEAR(small / big, 3.0 / 1.125, 0.05);
}

TEST_F(HmcTest, InternalPeakIsFourCubes)
{
    EXPECT_NEAR(sim::bytesPerTickToGbPerSec(hmc.internalPeakRate()),
                1280.0, 1e-6);
    EXPECT_NEAR(sim::bytesPerTickToGbPerSec(hmc.hostLinkRate()), 80.0,
                1e-6);
}

TEST_F(HmcTest, HostPortReportsCacheLineGranularity)
{
    EXPECT_EQ(hmc.hostPort().maxGranularity(), 64);
    EXPECT_GT(hmc.hostPort().latency(mem::AccessPattern::Random),
              hmc.localLatency(mem::AccessPattern::Random));
}

// ---------------------------------------------------------------------
// Chain topology (Section 4.6: the architecture is not tied to the
// star; a daisy chain trades worst-case hops for simpler wiring)

class HmcChainTest : public ::testing::Test
{
  protected:
    EventQueue eq;
    sim::HmcConfig cfg;
    std::unique_ptr<HmcMemory> hmc;
    JoinPool joins{eq};

    void
    SetUp() override
    {
        cfg.topology = sim::HmcTopology::Chain;
        hmc = std::make_unique<HmcMemory>(eq, cfg);
        hmc->setCubeShift(28);
    }
};

TEST_F(HmcChainTest, LatencyGrowsLinearlyWithDistance)
{
    auto lat = [&](int cube) {
        return hmc->latency(Origin::host(),
                            static_cast<mem::Addr>(cube) << 28,
                            mem::AccessPattern::Sequential);
    };
    // host -> cube c is c+1 hops on the chain.
    EXPECT_EQ(lat(1) - lat(0), 2 * cfg.linkLatency());
    EXPECT_EQ(lat(2) - lat(1), 2 * cfg.linkLatency());
    EXPECT_EQ(lat(3) - lat(2), 2 * cfg.linkLatency());
    // The far end is worse than the star's 2-hop worst case.
    sim::HmcConfig star_cfg;
    HmcMemory star(eq, star_cfg);
    star.setCubeShift(28);
    EXPECT_GT(lat(3), star.latency(Origin::host(), 3ull << 28,
                                   mem::AccessPattern::Sequential));
}

TEST_F(HmcChainTest, SatelliteToSatelliteSkipsTheHostLink)
{
    // Cube 1 -> cube 3 crosses segments 2 and 3 only.
    Tick done = 0;
    mem::StreamRequest r;
    r.addr = 3ull << 28;
    r.bytes = 1 << 20;
    r.granularity = 256;
    hmc->stream(Origin::onCube(1), r, finishInto(joins, done));
    eq.run();
    EXPECT_GT(done, 0u);
    EXPECT_GT(hmc->linkBytes(), 2.0 * (1 << 20)); // two segments
    EXPECT_DOUBLE_EQ(hmc->localBytes(), 0.0);
}

TEST_F(HmcChainTest, NeighborTransferUsesOneSegment)
{
    mem::StreamRequest r;
    r.addr = 1ull << 28;
    r.bytes = 1 << 20;
    r.granularity = 256; // header factor (256+32)/256 = 1.125
    hmc->stream(Origin::onCube(0), r, nullptr);
    eq.run();
    EXPECT_NEAR(hmc->linkBytes(), (1 << 20) * 1.125, 1024.0);
}

TEST_F(HmcChainTest, EightCubeChainWorks)
{
    sim::HmcConfig big = cfg;
    big.cubes = 8;
    EventQueue eq8;
    HmcMemory chain8(eq8, big);
    chain8.setCubeShift(27);
    EXPECT_EQ(chain8.cubeOf(7ull << 27), 7);
    auto near = chain8.latency(Origin::host(), 0,
                               mem::AccessPattern::Sequential);
    auto far = chain8.latency(Origin::host(), 7ull << 27,
                              mem::AccessPattern::Sequential);
    EXPECT_EQ(far - near, 14 * big.linkLatency());
}
