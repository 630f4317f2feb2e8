/**
 * @file
 * Tests for the platform timing simulator: the qualitative orderings
 * the paper's evaluation rests on must hold on every workload the
 * suite replays (a small one, for speed).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "platform/platform_sim.hh"
#include "workload/mutator.hh"

using namespace charon;
using platform::PlatformSim;
using platform::RunTiming;
using sim::PlatformKind;

namespace
{

/** One shared small-run trace for all timing tests. */
class PlatformTest : public ::testing::Test
{
  protected:
    static workload::Mutator *mut;

    static void
    SetUpTestSuite()
    {
        const auto &params = workload::findWorkload("KM");
        mut = new workload::Mutator(params, params.heapBytes, 3);
        mut->run();
    }

    static void TearDownTestSuite()
    {
        delete mut;
        mut = nullptr;
    }

    RunTiming
    simulate(PlatformKind kind,
             const sim::SystemConfig &cfg = sim::SystemConfig{})
    {
        PlatformSim sim_(kind, cfg, mut->cubeShift());
        return sim_.simulate(mut->recorder().run());
    }
};

workload::Mutator *PlatformTest::mut = nullptr;

} // namespace

TEST_F(PlatformTest, PlatformOrderingMatchesFigure12)
{
    auto ddr4 = simulate(PlatformKind::HostDdr4);
    auto hmc = simulate(PlatformKind::HostHmc);
    auto charon = simulate(PlatformKind::CharonNmp);
    auto ideal = simulate(PlatformKind::Ideal);

    EXPECT_LT(hmc.gcSeconds, ddr4.gcSeconds);
    EXPECT_LT(charon.gcSeconds, hmc.gcSeconds);
    EXPECT_LT(ideal.gcSeconds, charon.gcSeconds);
}

TEST_F(PlatformTest, CharonSpeedupInPaperBallpark)
{
    auto ddr4 = simulate(PlatformKind::HostDdr4);
    auto charon = simulate(PlatformKind::CharonNmp);
    double speedup = ddr4.gcSeconds / charon.gcSeconds;
    EXPECT_GT(speedup, 1.5);
    EXPECT_LT(speedup, 8.0);
}

TEST_F(PlatformTest, CpuSideCharonIsSlowerThanNearMemory)
{
    // Figure 16: the CPU-side accelerator misses the internal TSV
    // bandwidth and loses ~37% throughput.
    auto nmp = simulate(PlatformKind::CharonNmp);
    auto cpu_side = simulate(PlatformKind::CharonCpuSide);
    EXPECT_GT(cpu_side.gcSeconds, nmp.gcSeconds);
    auto ddr4 = simulate(PlatformKind::HostDdr4);
    // ...but still beats the plain host (Figure 16's middle bar).
    EXPECT_LT(cpu_side.gcSeconds, ddr4.gcSeconds);
}

TEST_F(PlatformTest, CharonUsesMoreBandwidthThanHostPlatforms)
{
    auto ddr4 = simulate(PlatformKind::HostDdr4);
    auto charon = simulate(PlatformKind::CharonNmp);
    EXPECT_GT(charon.avgGcBandwidthGBs, ddr4.avgGcBandwidthGBs);
    // DDR4 cannot exceed its 34 GB/s peak.
    EXPECT_LE(ddr4.avgGcBandwidthGBs, 34.0);
}

TEST_F(PlatformTest, CharonKeepsMajorityOfAccessesLocal)
{
    auto charon = simulate(PlatformKind::CharonNmp);
    EXPECT_GT(charon.localAccessFraction, 0.4);
    auto ddr4 = simulate(PlatformKind::HostDdr4);
    EXPECT_DOUBLE_EQ(ddr4.localAccessFraction, 0.0);
}

TEST_F(PlatformTest, CharonSavesEnergy)
{
    auto ddr4 = simulate(PlatformKind::HostDdr4);
    auto hmc = simulate(PlatformKind::HostHmc);
    auto charon = simulate(PlatformKind::CharonNmp);
    EXPECT_LT(charon.totalEnergyJ(), ddr4.totalEnergyJ());
    EXPECT_LT(charon.totalEnergyJ(), hmc.totalEnergyJ());
    EXPECT_GT(charon.unitEnergyJ, 0.0);
    EXPECT_DOUBLE_EQ(ddr4.unitEnergyJ, 0.0);
}

TEST_F(PlatformTest, BreakdownCoversWholeGc)
{
    auto ddr4 = simulate(PlatformKind::HostDdr4);
    auto bd = ddr4.breakdown();
    EXPECT_GT(bd.copy, 0.0);
    EXPECT_GT(bd.search, 0.0);
    EXPECT_GT(bd.scanPush, 0.0);
    EXPECT_GT(bd.glue, 0.0);
    // Thread-time never exceeds cores x wall time.
    EXPECT_LE(bd.total(),
              ddr4.gcSeconds * 8 * 1.001);
    // Minor + major partition the GCs.
    EXPECT_EQ(ddr4.gcs.size(),
              mut->recorder().run().gcs.size());
    EXPECT_NEAR(ddr4.minorSeconds + ddr4.majorSeconds, ddr4.gcSeconds,
                1e-9);
}

TEST_F(PlatformTest, OffloadablePrimitivesDominateHostGc)
{
    // Figure 4's headline: the three primitives cover most of GC time
    // on the host.
    auto ddr4 = simulate(PlatformKind::HostDdr4);
    auto bd = ddr4.breakdown();
    EXPECT_GT(bd.offloadable() / bd.total(), 0.55);
}

TEST_F(PlatformTest, DistributedStructuresScaleNoWorse)
{
    sim::SystemConfig dist;
    dist.charon.distributedStructures = true;
    auto unified = simulate(PlatformKind::CharonNmp);
    auto distributed = simulate(PlatformKind::CharonNmp, dist);
    EXPECT_LE(distributed.gcSeconds, unified.gcSeconds * 1.02);
}

TEST_F(PlatformTest, MoreGcThreadsHelpCharonMoreThanDdr4)
{
    // Figure 15's scalability claim, in miniature: going 2 -> 8
    // threads buys Charon more than the bandwidth-capped DDR4 host.
    // (The trace is striped over the recorder's thread count, so
    // build a 2-thread trace separately.)
    const auto &params = workload::findWorkload("KM");
    workload::Mutator two(params, params.heapBytes, 3, /*threads=*/2);
    two.run();

    auto time_on = [&](PlatformKind kind, workload::Mutator &m) {
        PlatformSim sim_(kind, sim::SystemConfig{}, m.cubeShift());
        return sim_.simulate(m.recorder().run()).gcSeconds;
    };
    double ddr4_scale = time_on(PlatformKind::HostDdr4, two)
                        / time_on(PlatformKind::HostDdr4, *mut);
    double charon_scale = time_on(PlatformKind::CharonNmp, two)
                          / time_on(PlatformKind::CharonNmp, *mut);
    EXPECT_GT(charon_scale, ddr4_scale);
}

TEST_F(PlatformTest, MutatorTimeIndependentOfPlatform)
{
    auto ddr4 = simulate(PlatformKind::HostDdr4);
    auto charon = simulate(PlatformKind::CharonNmp);
    EXPECT_DOUBLE_EQ(ddr4.mutatorSeconds, charon.mutatorSeconds);
    EXPECT_GT(ddr4.mutatorSeconds, 0.0);
}

// ---------------------------------------------------------------------
// Parameterized sweep: basic sanity on every platform kind

class EveryPlatform
    : public ::testing::TestWithParam<sim::PlatformKind>
{
};

TEST_P(EveryPlatform, ProducesSaneTiming)
{
    const auto &params = workload::findWorkload("ALS");
    workload::Mutator mut(params, params.heapBytes, 9);
    mut.run();
    PlatformSim sim_(GetParam(), sim::SystemConfig{}, mut.cubeShift());
    auto t = sim_.simulate(mut.recorder().run());

    EXPECT_GT(t.gcSeconds, 0.0);
    EXPECT_GT(t.mutatorSeconds, 0.0);
    EXPECT_NEAR(t.minorSeconds + t.majorSeconds, t.gcSeconds, 1e-9);
    EXPECT_EQ(t.gcs.size(), mut.recorder().run().gcs.size());
    EXPECT_GT(t.totalEnergyJ(), 0.0);
    EXPECT_GT(t.dramBytes, 0.0);
    auto bd = t.breakdown();
    EXPECT_GE(bd.copy, 0.0);
    EXPECT_GT(bd.glue, 0.0);
    // Thread time cannot exceed cores x wall clock.
    EXPECT_LE(bd.total(), t.gcSeconds * 8 * 1.001);
}

/** Every platform kind, with the name its test case carries. */
constexpr std::pair<PlatformKind, const char *> kEveryKind[] = {
    {PlatformKind::HostDdr4, "Ddr4"},
    {PlatformKind::HostHmc, "Hmc"},
    {PlatformKind::CharonNmp, "Charon"},
    {PlatformKind::CharonCpuSide, "CharonCpu"},
    {PlatformKind::Ideal, "Ideal"},
    {PlatformKind::IgpuOffload, "Igpu"},
    {PlatformKind::CxlMsa, "Cxl"},
};

std::vector<PlatformKind>
everyKind()
{
    std::vector<PlatformKind> kinds;
    for (const auto &kind : kEveryKind)
        kinds.push_back(kind.first);
    return kinds;
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, EveryPlatform, ::testing::ValuesIn(everyKind()),
    [](const ::testing::TestParamInfo<PlatformKind> &info) {
        return std::string(kEveryKind[info.index].second);
    });

TEST(SeedRobustness, CharonSpeedupStableAcrossSeeds)
{
    // The headline result must not hinge on one RNG stream: across
    // seeds, KM's Charon speedup stays within a narrow band.
    const auto &params = workload::findWorkload("KM");
    std::vector<double> speedups;
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        workload::Mutator mut(params, params.heapBytes, seed);
        mut.run();
        PlatformSim ddr4(PlatformKind::HostDdr4, sim::SystemConfig{},
                         mut.cubeShift());
        PlatformSim charon(PlatformKind::CharonNmp, sim::SystemConfig{},
                           mut.cubeShift());
        speedups.push_back(
            ddr4.simulate(mut.recorder().run()).gcSeconds
            / charon.simulate(mut.recorder().run()).gcSeconds);
    }
    double lo = *std::min_element(speedups.begin(), speedups.end());
    double hi = *std::max_element(speedups.begin(), speedups.end());
    EXPECT_GT(lo, 2.0);
    EXPECT_LT(hi / lo, 1.25); // <25% spread across seeds
}
