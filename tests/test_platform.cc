/**
 * @file
 * Tests for the platform timing simulator: the qualitative orderings
 * the paper's evaluation rests on must hold on every workload the
 * suite replays (a small one, for speed).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
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

/** Whole-run thread-seconds over every primitive and the glue. */
double
threadSeconds(const RunTiming &t)
{
    double s = 0;
    for (const auto &gc : t.gcs) {
        for (const auto &phase : gc.rollup.phases)
            s += phase.threadSeconds();
    }
    return s;
}

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
    auto rollup = ddr4.rollup();
    EXPECT_GT(rollup.totalByKind(gc::PrimKind::Copy).seconds, 0.0);
    EXPECT_GT(rollup.totalByKind(gc::PrimKind::Search).seconds, 0.0);
    EXPECT_GT(rollup.totalByKind(gc::PrimKind::ScanPush).seconds, 0.0);
    EXPECT_GT(rollup.glueSeconds(), 0.0);
    // Thread-time never exceeds cores x wall time.
    EXPECT_LE(threadSeconds(ddr4), ddr4.gcSeconds * 8 * 1.001);
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
    const double total = threadSeconds(ddr4);
    EXPECT_GT((total - ddr4.rollup().glueSeconds()) / total, 0.55);
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
    auto rollup = t.rollup();
    EXPECT_GE(rollup.totalByKind(gc::PrimKind::Copy).seconds, 0.0);
    EXPECT_GT(rollup.glueSeconds(), 0.0);
    // Thread time cannot exceed cores x wall clock.
    EXPECT_LE(threadSeconds(t), t.gcSeconds * 8 * 1.001);
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

// ---------------------------------------------------------------------
// --dump-stats: every fluid channel prints its bytes, utilized ticks
// and flows, in construction order, with default stream formatting.

namespace
{

/** One minor collection: a single thread copying 1 MiB cube 1 -> 2. */
gc::RunTrace
oneCopyTrace()
{
    gc::Bucket copy;
    copy.kind = gc::PrimKind::Copy;
    copy.srcCube = 1;
    copy.dstCube = 2;
    copy.invocations = 4;
    copy.seqReadBytes = 1 << 20;
    copy.writeBytes = 1 << 20;
    gc::ThreadWork work;
    work.glueInstructions = 1000;
    work.buckets.push_back(copy);
    gc::PhaseTrace phase;
    phase.kind = gc::PhaseKind::MinorEvacuate;
    phase.addThread(work);
    gc::GcTrace gct;
    gct.phases.push_back(std::move(phase));
    gc::RunTrace trace;
    trace.gcs.push_back(std::move(gct));
    trace.mutatorInstructions.push_back(0);
    return trace;
}

std::string
dumpAfterReplay(PlatformKind kind)
{
    PlatformSim sim_(kind, sim::SystemConfig{}, /*cube_shift=*/22);
    sim_.simulate(oneCopyTrace());
    std::ostringstream os;
    sim_.dumpStats(os);
    return os.str();
}

} // namespace

TEST(PlatformStats, DumpPrintsThreeLinesPerChannel)
{
    EXPECT_EQ(dumpAfterReplay(PlatformKind::HostDdr4),
              "ddr4.ch0.bytes = 1.16508e+06\n"
              "ddr4.ch0.utilized_ticks = 6.85344e+07\n"
              "ddr4.ch0.flows = 1\n"
              "ddr4.ch1.bytes = 1.16508e+06\n"
              "ddr4.ch1.utilized_ticks = 6.85344e+07\n"
              "ddr4.ch1.flows = 1\n");
    // The unit on cube 1 reads its own TSV and writes cube 2's through
    // the central cube, over links 1 and 2; the host link 0 is idle.
    EXPECT_EQ(dumpAfterReplay(PlatformKind::CharonNmp),
              "hmc.cube0.tsv.bytes = 0\n"
              "hmc.cube0.tsv.utilized_ticks = 0\n"
              "hmc.cube0.tsv.flows = 0\n"
              "hmc.cube1.tsv.bytes = 1.16508e+06\n"
              "hmc.cube1.tsv.utilized_ticks = 3.64089e+06\n"
              "hmc.cube1.tsv.flows = 1\n"
              "hmc.cube2.tsv.bytes = 1.16508e+06\n"
              "hmc.cube2.tsv.utilized_ticks = 3.64089e+06\n"
              "hmc.cube2.tsv.flows = 1\n"
              "hmc.cube3.tsv.bytes = 0\n"
              "hmc.cube3.tsv.utilized_ticks = 0\n"
              "hmc.cube3.tsv.flows = 0\n"
              "hmc.link0.bytes = 0\n"
              "hmc.link0.utilized_ticks = 0\n"
              "hmc.link0.flows = 0\n"
              "hmc.link1.bytes = 1.17965e+06\n"
              "hmc.link1.utilized_ticks = 1.47456e+07\n"
              "hmc.link1.flows = 1\n"
              "hmc.link2.bytes = 1.17965e+06\n"
              "hmc.link2.utilized_ticks = 1.47456e+07\n"
              "hmc.link2.flows = 1\n"
              "hmc.link3.bytes = 0\n"
              "hmc.link3.utilized_ticks = 0\n"
              "hmc.link3.flows = 0\n");
}
