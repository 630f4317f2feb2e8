/**
 * @file
 * Tests for the Charon device timing model and the area model.
 */

#include <gtest/gtest.h>

#include "accel/area_energy.hh"
#include "accel/device.hh"
#include "finish_into.hh"
#include "sim/event_queue.hh"

using namespace charon;
using accel::AreaModel;
using accel::CharonDevice;
using charon::sim::EventQueue;
using charon::sim::JoinPool;
using charon::sim::Tick;
using charon::test::finishInto;

namespace
{

gc::Bucket
copyBucket(std::uint64_t bytes, std::uint64_t inv = 1, int src = 1,
           int dst = 1)
{
    gc::Bucket b;
    b.kind = gc::PrimKind::Copy;
    b.srcCube = src;
    b.dstCube = dst;
    b.invocations = inv;
    b.seqReadBytes = bytes;
    b.writeBytes = bytes;
    return b;
}

} // namespace

class DeviceTest : public ::testing::Test
{
  protected:
    EventQueue eq;
    sim::SystemConfig cfg;
    hmc::HmcMemory hmc{eq, cfg.hmc};
    CharonDevice dev{eq, hmc, cfg, /*cpu_side=*/false};
    JoinPool joins{eq};

    DeviceTest() { hmc.setCubeShift(28); }

    Tick
    exec(const gc::Bucket &b, double hit = 0.9)
    {
        Tick done = 0;
        dev.execBucket(b, hit, finishInto(joins, done));
        eq.run();
        return done;
    }
};

TEST_F(DeviceTest, LargeCopyApproachesUnitIssueBandwidth)
{
    // 64 MB copied (128 MB moved) by one unit capped at 160 GB/s of
    // combined load+store issue.
    Tick done = exec(copyBucket(64 << 20));
    double gbps = 2.0 * 64.0 / 1024 / sim::ticksToSeconds(done);
    EXPECT_GT(gbps, 120.0);
    EXPECT_LE(gbps, 161.0);
}

TEST_F(DeviceTest, SmallCopyPaysLatencyFloor)
{
    // A 64 B object copy cannot beat the offload round trip plus the
    // DRAM access latency (~50 ns) — the reason the modified JVM
    // keeps tiny copies on the host.
    Tick done = exec(copyBucket(64));
    EXPECT_GT(sim::ticksToNs(done), 40.0);
    EXPECT_LT(sim::ticksToNs(done), 90.0);
}

TEST_F(DeviceTest, PerInvocationOverheadScalesWithCount)
{
    Tick one = exec(copyBucket(64, 1));
    EventQueue eq2;
    hmc::HmcMemory hmc2(eq2, cfg.hmc);
    CharonDevice dev2(eq2, hmc2, cfg, /*cpu_side=*/false);
    JoinPool joins2(eq2);
    Tick done = 0;
    dev2.execBucket(copyBucket(64 * 1000, 1000), 0.9,
                    finishInto(joins2, done));
    eq2.run();
    // 1000 invocations cost ~1000x the per-invocation part.
    EXPECT_GT(done, 500 * one);
}

TEST_F(DeviceTest, RemoteDestinationCrossesLinks)
{
    exec(copyBucket(1 << 20, 1, 1, 2));
    EXPECT_GT(hmc.linkBytes(), 0.0);
    EXPECT_GT(hmc.remoteBytes(), 0.0);
}

TEST_F(DeviceTest, LocalCopyStaysLocal)
{
    exec(copyBucket(1 << 20, 1, 1, 1));
    EXPECT_DOUBLE_EQ(hmc.remoteBytes(), 0.0);
}

TEST_F(DeviceTest, OffloadOverheadHigherForSatelliteCubes)
{
    EXPECT_GT(dev.offloadOverhead(1), dev.offloadOverhead(0));
}

TEST_F(DeviceTest, BitmapCountHitRateMatters)
{
    gc::Bucket b;
    b.kind = gc::PrimKind::BitmapCount;
    b.srcCube = 1;
    b.invocations = 10000;
    b.seqReadBytes = 10000 * 32;
    b.rangeBits = 10000 * 128;

    Tick hot = exec(b, 0.95);
    EventQueue eq2;
    hmc::HmcMemory hmc2(eq2, cfg.hmc);
    CharonDevice dev2(eq2, hmc2, cfg, /*cpu_side=*/false);
    JoinPool joins2(eq2);
    Tick cold = 0;
    dev2.execBucket(b, 0.0, finishInto(joins2, cold));
    eq2.run();
    // Cold lookups pay the DRAM round trip per invocation; hot ones
    // only the cache (plus the unified-cache link hop on a satellite
    // cube).
    EXPECT_GT(cold, hot * 3 / 2);
}

TEST_F(DeviceTest, ScanPushWithFewRefsIsLatencyBound)
{
    gc::Bucket sparse;
    sparse.kind = gc::PrimKind::ScanPush;
    sparse.srcCube = 1;
    sparse.invocations = 1000;
    sparse.seqReadBytes = 1000 * 24;
    sparse.randomAccesses = 1000; // one ref per object
    sparse.randomBytes = 1000 * 16;

    gc::Bucket dense = sparse;
    dense.invocations = 100; // same refs packed into fewer objects
    dense.randomAccesses = 1000;

    Tick t_sparse = exec(sparse);
    EventQueue eq2;
    hmc::HmcMemory hmc2(eq2, cfg.hmc);
    CharonDevice dev2(eq2, hmc2, cfg, /*cpu_side=*/false);
    JoinPool joins2(eq2);
    Tick t_dense = 0;
    dev2.execBucket(dense, 0.9, finishInto(joins2, t_dense));
    eq2.run();
    // Ten refs per invocation exploit MLP; one ref per invocation
    // serializes on latency (Section 5.2's Scan&Push analysis).
    EXPECT_GT(t_sparse, 2 * t_dense);
}

TEST_F(DeviceTest, GcPrologueScalesWithLlc)
{
    sim::SystemConfig big = cfg;
    big.host.llcSize *= 2;
    EventQueue eq2;
    hmc::HmcMemory hmc2(eq2, big.hmc);
    CharonDevice dev2(eq2, hmc2, big, /*cpu_side=*/false);
    EXPECT_EQ(dev2.gcPrologueTicks(), 2 * dev.gcPrologueTicks());
}

TEST_F(DeviceTest, PacketBytesAccumulate)
{
    EXPECT_DOUBLE_EQ(dev.packetBytes(), 0.0);
    exec(copyBucket(1024, 4));
    // 4 x (48 B request + 16 B no-value response).
    EXPECT_DOUBLE_EQ(dev.packetBytes(), 4.0 * (48 + 16));
}

TEST(DeviceUnits, IdleEnergyAndAreaCountTheUnitsThePoolsHold)
{
    // n units of each kind on 4 cubes: the Copy/Search and Bitmap
    // Count pools (and local Scan&Push pools) hold max(1, n / 4) units
    // per cube; central Scan&Push holds all n.
    struct Case
    {
        int n;
        bool scanPushLocal;
        int copySearch, bitmapCount, scanPush;
    };
    for (const Case &c : {Case{2, false, 4, 4, 2}, Case{6, false, 4, 4, 6},
                          Case{8, false, 8, 8, 8}, Case{2, true, 4, 4, 4}}) {
        SCOPED_TRACE(testing::Message() << "n=" << c.n << " local="
                                        << c.scanPushLocal);
        sim::SystemConfig cfg;
        ASSERT_EQ(cfg.hmc.cubes, 4);
        cfg.charon.copySearchUnits = c.n;
        cfg.charon.bitmapCountUnits = c.n;
        cfg.charon.scanPushUnits = c.n;
        cfg.charon.scanPushLocal = c.scanPushLocal;
        EventQueue eq;
        hmc::HmcMemory hmc(eq, cfg.hmc);
        CharonDevice dev(eq, hmc, cfg, /*cpu_side=*/false);

        // A fresh device has done nothing: every unit idles.
        const int held = c.copySearch + c.bitmapCount + c.scanPush;
        EXPECT_DOUBLE_EQ(dev.unitEnergyJ(1.0),
                         held * cfg.charon.unitIdlePowerW);

        // Table 4 per-unit areas over the units held, plus the
        // general components (the area with no units at all).
        sim::SystemConfig none = cfg;
        none.charon.copySearchUnits = 0;
        none.charon.bitmapCountUnits = 0;
        none.charon.scanPushUnits = 0;
        const double expect = AreaModel(none).totalMm2()
                              + c.copySearch * 0.0223
                              + c.bitmapCount * 0.0427
                              + c.scanPush * 0.0720;
        EXPECT_NEAR(dev.areaMm2(), expect, 1e-12);
        EXPECT_EQ(accel::backendAreaMm2(sim::PlatformKind::CharonNmp, cfg),
                  dev.areaMm2());
    }
}

// ---------------------------------------------------------------------
// Area model (Table 4)

TEST(AreaModel, TotalsMatchTable4)
{
    AreaModel area{sim::SystemConfig{}};
    EXPECT_NEAR(area.totalMm2(), 1.9470, 1e-4);
    EXPECT_NEAR(area.perCubeMm2(), 0.4868, 1e-4);
    EXPECT_NEAR(area.logicLayerFraction(), 0.0049, 1e-4);
}

TEST(AreaModel, PerCubeRowsFollowTheCubeCount)
{
    // Command Queue, both Request Queues, Metadata Array and TLB are
    // one per cube; the bitmap cache stays one, and the unit rows keep
    // their configured counts.  Table 4's 4 cubes hold 0.6948 mm^2 of
    // per-cube rows, 0.1737 mm^2 a cube.
    constexpr double kPerCube = 0.0049 + 0.0015 + 0.0162 + 0.0805 + 0.0706;
    constexpr double kRest = 0.1562 + 8 * (0.0223 + 0.0427 + 0.0720);
    for (int cubes : {2, 8}) {
        SCOPED_TRACE(testing::Message() << cubes << " cubes");
        sim::SystemConfig cfg;
        cfg.hmc.cubes = cubes;
        AreaModel area{cfg};
        for (const auto &c : area.components()) {
            if (c.isProcessingUnit || c.name == "Bitmap Cache")
                continue;
            EXPECT_EQ(c.units, cubes) << c.name;
        }
        EXPECT_NEAR(area.totalMm2(), cubes * kPerCube + kRest, 1e-12);
        EXPECT_NEAR(area.perCubeMm2(), area.totalMm2() / cubes, 1e-12);
        EXPECT_NEAR(area.logicLayerFraction(),
                    area.perCubeMm2() / AreaModel::kLogicDieMm2, 1e-12);
        EXPECT_DOUBLE_EQ(
            accel::PowerModel::powerDensityMwPerMm2(4.0, cubes),
            4000.0 / (cubes * AreaModel::kLogicDieMm2));
    }
    // 2 cubes: 2 x 0.1737 + 1.2522 = 1.5996 mm^2; 8 cubes: 2.6418.
    sim::SystemConfig two, eight;
    two.hmc.cubes = 2;
    eight.hmc.cubes = 8;
    EXPECT_NEAR(AreaModel(two).totalMm2(), 1.5996, 1e-4);
    EXPECT_NEAR(AreaModel(eight).totalMm2(), 2.6418, 1e-4);
}

TEST(AreaModel, HasAllNineComponents)
{
    AreaModel area{sim::SystemConfig{}};
    EXPECT_EQ(area.components().size(), 9u);
    int units = 0, general = 0;
    for (const auto &c : area.components())
        (c.isProcessingUnit ? units : general) += 1;
    EXPECT_EQ(units, 3);
    EXPECT_EQ(general, 6);
}

TEST(AreaModel, PowerDensityBelowPassiveHeatsinkLimit)
{
    // Section 5.3: max power 4.51 W -> 45.1 mW/mm^2 per cube budget,
    // far below a passive heat sink's limit.
    double density = accel::PowerModel::powerDensityMwPerMm2(
        accel::PowerModel::kPaperMaxPowerW, 4);
    EXPECT_NEAR(density, 11.3, 0.1); // over 4 cubes' logic dies
    EXPECT_LT(density,
              accel::PowerModel::kPassiveHeatsinkMwPerMm2);
}
