/**
 * @file
 * Interface-conformance suite for the OffloadBackend implementations
 * (Charon near-memory, iGPU, CXL memory-side accelerator), plus a
 * golden four-way platform grid.
 *
 * Every backend must honor the same contract PlatformSim relies on:
 * capability masks that match what execBucket actually implements,
 * completions delivered through the event queue (never synchronously),
 * fault-engine hooks that actually perturb timing, and graceful
 * degradation to the pure-host replay when a trace offloads nothing.
 *
 * The four-way grid golden (tests/golden/backend_golden.json) pins
 * host / iGPU / Charon / CXL GC seconds on one cheap workload;
 * regenerate after an intended model change with
 *
 *     CHARON_UPDATE_GOLDEN=1 build/tests/test_backend
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "json_mini.hh"

#include "accel/backend.hh"
#include "harness/experiment_runner.hh"
#include "hmc/hmc.hh"
#include "mem/ddr4.hh"
#include "platform/platform_sim.hh"
#include "sim/event_queue.hh"
#include "workload/catalog.hh"
#include "workload/mutator.hh"

using namespace charon;
using accel::OffloadBackend;
using sim::PlatformKind;
using sim::Tick;

namespace
{

constexpr PlatformKind kBackendKinds[] = {
    PlatformKind::CharonNmp,
    PlatformKind::IgpuOffload,
    PlatformKind::CxlMsa,
};

/** One backend with the memories the factory wants for it. */
struct BackendRig
{
    sim::EventQueue eq;
    sim::SystemConfig cfg;
    hmc::HmcMemory hmc{eq, cfg.hmc};
    mem::Ddr4Memory ddr4{eq, cfg.ddr4};
    std::unique_ptr<OffloadBackend> backend;
    sim::JoinPool joins{eq};

    explicit BackendRig(PlatformKind kind)
    {
        hmc.setCubeShift(28);
        backend = accel::makeBackend(kind, eq, &hmc, &ddr4, cfg);
    }

    Tick
    exec(const gc::Bucket &b, double hit = 0.9)
    {
        Tick done = 0;
        bool fired = false;
        backend->execBucket(b, hit, joins.acquire(1, [&](Tick t) {
            done = t;
            fired = true;
        }));
        EXPECT_FALSE(fired)
            << "execBucket completed synchronously (contract: the "
               "completion must come off the event queue)";
        eq.run();
        EXPECT_TRUE(fired);
        return done;
    }
};

gc::Bucket
copyBucket(std::uint64_t bytes, std::uint64_t inv = 1)
{
    gc::Bucket b;
    b.kind = gc::PrimKind::Copy;
    b.srcCube = 1;
    b.dstCube = 1;
    b.invocations = inv;
    b.seqReadBytes = bytes;
    b.writeBytes = bytes;
    return b;
}

gc::Bucket
scanPushBucket()
{
    gc::Bucket b;
    b.kind = gc::PrimKind::ScanPush;
    b.srcCube = 1;
    b.dstCube = 1;
    b.invocations = 64;
    b.seqReadBytes = 1 << 16;
    b.randomAccesses = 1024;
    b.randomBytes = 1024 * 16;
    b.refsVisited = 4096;
    b.stackPushes = 512;
    b.bitmapRmwAccesses = 512;
    return b;
}

} // namespace

// ---------------------------------------------------------------------
// Capability honesty.
// ---------------------------------------------------------------------

TEST(BackendConformance, FactoryKindsAndCapabilityHonesty)
{
    for (PlatformKind kind : kBackendKinds) {
        BackendRig rig(kind);
        ASSERT_NE(rig.backend, nullptr) << sim::platformName(kind);
        EXPECT_EQ(rig.backend->kind(), sim::backendFor(kind));
        EXPECT_STREQ(rig.backend->name(),
                     sim::backendName(rig.backend->kind()));

        std::uint32_t mask = rig.backend->capabilityMask();
        EXPECT_NE(mask, 0u) << "a backend with no primitives should "
                               "not exist (use nullptr)";
        EXPECT_EQ(mask & ~gc::kAllPrimsMask, 0u)
            << "capability bits outside the primitive set";
        for (int k = 0; k < gc::kNumPrimKinds; ++k) {
            auto prim = static_cast<gc::PrimKind>(k);
            EXPECT_EQ(rig.backend->supports(prim),
                      (mask & gc::primBit(prim)) != 0);
        }
        EXPECT_GT(rig.backend->areaMm2(), 0.0);
        EXPECT_EQ(rig.backend->areaMm2(),
                  accel::backendAreaMm2(kind, rig.cfg));
    }
    // The Charon units implement the full Table 1 set.
    BackendRig charon(PlatformKind::CharonNmp);
    EXPECT_EQ(charon.backend->capabilityMask(), gc::kAllPrimsMask);
}

TEST(BackendConformance, HostPlatformsGetNoBackend)
{
    for (PlatformKind kind : {PlatformKind::HostDdr4,
                              PlatformKind::HostHmc,
                              PlatformKind::Ideal}) {
        BackendRig rig(kind);
        EXPECT_EQ(rig.backend, nullptr) << sim::platformName(kind);
        EXPECT_EQ(accel::backendAreaMm2(kind, rig.cfg), 0.0);
    }
}

// ---------------------------------------------------------------------
// Completion-join ordering.
// ---------------------------------------------------------------------

TEST(BackendConformance, EmptyBucketCompletesAtNowViaEvent)
{
    for (PlatformKind kind : kBackendKinds) {
        SCOPED_TRACE(sim::platformName(kind));
        BackendRig rig(kind);
        // exec() itself asserts the completion is never synchronous.
        Tick done = rig.exec(copyBucket(0, /*inv=*/0));
        EXPECT_EQ(done, 0u) << "empty bucket must complete at the "
                               "current tick";
    }
}

TEST(BackendConformance, CompletionOrderingAndDeterminism)
{
    for (PlatformKind kind : kBackendKinds) {
        SCOPED_TRACE(sim::platformName(kind));
        Tick small = BackendRig(kind).exec(copyBucket(64));
        Tick big = BackendRig(kind).exec(copyBucket(1 << 20));
        EXPECT_GT(small, 0u) << "non-empty bucket completing at t=0";
        EXPECT_GT(big, small)
            << "a 1 MB copy completing no later than a 64 B copy";
        // Determinism: a fresh rig replays the same bucket to the
        // identical tick.
        EXPECT_EQ(BackendRig(kind).exec(copyBucket(1 << 20)), big);

        // Two buckets issued at the same tick both complete, and the
        // join delivers each exactly once.
        BackendRig rig(kind);
        int fired = 0;
        auto count = [&](Tick) { ++fired; };
        rig.backend->execBucket(copyBucket(64), 0.9,
                                rig.joins.acquire(1, count));
        rig.backend->execBucket(copyBucket(4096), 0.9,
                                rig.joins.acquire(1, count));
        rig.eq.run();
        EXPECT_EQ(fired, 2);
    }
}

// ---------------------------------------------------------------------
// Fault hooks.
// ---------------------------------------------------------------------

TEST(BackendConformance, TlbPoisonSlowsEveryBackend)
{
    for (PlatformKind kind : kBackendKinds) {
        SCOPED_TRACE(sim::platformName(kind));
        Tick clean = BackendRig(kind).exec(scanPushBucket());

        BackendRig rig(kind);
        fault::FaultPlan plan;
        fault::FaultSpec spec;
        spec.kind = fault::FaultKind::TlbPoison;
        spec.rate = 1.0;
        plan.specs.push_back(spec);
        fault::FaultEngine engine(plan, rig.cfg.hmc.cubes);
        rig.backend->setFaultEngine(&engine);
        Tick poisoned = rig.exec(scanPushBucket());

        EXPECT_GT(poisoned, clean)
            << "a fully poisoned TLB must cost translation re-walks "
               "on every backend";
    }
}

// ---------------------------------------------------------------------
// Empty-capability degradation: a trace that offloads nothing must
// replay exactly like the matching pure-host platform.
// ---------------------------------------------------------------------

namespace
{

/** A small recorded run with every bucket pinned to the host. */
gc::RunTrace
hostOnlyTrace(int *cube_shift)
{
    const auto &params = workload::findWorkload("KM");
    workload::Mutator mut(params, params.minHeapBytes * 2, 5);
    mut.run();
    *cube_shift = mut.cubeShift();
    gc::RunTrace trace = mut.recorder().run();
    for (auto &g : trace.gcs) {
        g.capabilityMask = 0;
        for (auto &phase : g.phases) {
            for (auto &host_only : phase.buckets.hostOnly)
                host_only = 1;
        }
    }
    return trace;
}

void
expectTimingEq(const platform::RunTiming &a,
               const platform::RunTiming &b)
{
    EXPECT_EQ(a.gcSeconds, b.gcSeconds);
    EXPECT_EQ(a.minorSeconds, b.minorSeconds);
    EXPECT_EQ(a.majorSeconds, b.majorSeconds);
    for (bool major : {false, true}) {
        for (int k = 0; k < gc::kNumPrimKinds; ++k) {
            auto kind = static_cast<gc::PrimKind>(k);
            EXPECT_EQ(a.threadSeconds(major, kind),
                      b.threadSeconds(major, kind));
        }
        EXPECT_EQ(a.threadSeconds(major, std::nullopt),
                  b.threadSeconds(major, std::nullopt));
    }
}

} // namespace

TEST(BackendDegradation, NoOffloadReplaysAsPureHost)
{
    int shift = 0;
    gc::RunTrace trace = hostOnlyTrace(&shift);
    sim::SystemConfig cfg;

    // Charon over HMC degrades to exactly the HostHmc replay: same
    // memory, same host port, no prologue flush, no unit time.
    {
        platform::PlatformSim charon(PlatformKind::CharonNmp, cfg,
                                     shift);
        platform::PlatformSim host(PlatformKind::HostHmc, cfg, shift);
        auto tc = charon.simulate(trace);
        auto th = host.simulate(trace);
        expectTimingEq(tc, th);
        ASSERT_NE(charon.backend(), nullptr);
        EXPECT_EQ(charon.backend()->unitBusySeconds(), 0.0);
        EXPECT_EQ(charon.backend()->packetBytes(), 0.0);
    }

    // The iGPU shares the host DDR4 directly, so its degradation
    // target is the DDR4 baseline.
    {
        platform::PlatformSim igpu(PlatformKind::IgpuOffload, cfg,
                                   shift);
        platform::PlatformSim host(PlatformKind::HostDdr4, cfg, shift);
        auto ti = igpu.simulate(trace);
        auto th = host.simulate(trace);
        expectTimingEq(ti, th);
        ASSERT_NE(igpu.backend(), nullptr);
        EXPECT_EQ(igpu.backend()->unitBusySeconds(), 0.0);
        EXPECT_EQ(igpu.backend()->packetBytes(), 0.0);
    }

    // CXL has no pure-host twin — the host path itself crosses the
    // link — so the contract is determinism plus idle device units.
    {
        platform::PlatformSim a(PlatformKind::CxlMsa, cfg, shift);
        platform::PlatformSim b(PlatformKind::CxlMsa, cfg, shift);
        auto ta = a.simulate(trace);
        auto tb = b.simulate(trace);
        expectTimingEq(ta, tb);
        ASSERT_NE(a.backend(), nullptr);
        EXPECT_EQ(a.backend()->unitBusySeconds(), 0.0);
        EXPECT_EQ(a.backend()->packetBytes(), 0.0);
        // And the link tax is real: slower than the raw DDR4 host.
        platform::PlatformSim ddr4(PlatformKind::HostDdr4, cfg, shift);
        EXPECT_GT(ta.gcSeconds, ddr4.simulate(trace).gcSeconds);
    }
}

// ---------------------------------------------------------------------
// Golden four-way grid.
// ---------------------------------------------------------------------

namespace
{

constexpr PlatformKind kGridPlatforms[] = {
    PlatformKind::HostDdr4,
    PlatformKind::IgpuOffload,
    PlatformKind::CharonNmp,
    PlatformKind::CxlMsa,
};

struct GridCell
{
    std::string label;
    double gcSeconds = 0;
};

std::string
gridGoldenPath()
{
    return std::string(CHARON_GOLDEN_DIR) + "/backend_golden.json";
}

std::vector<GridCell>
measureGrid()
{
    std::vector<harness::Cell> cells;
    std::uint64_t heap = workload::findWorkload("CC").minHeapBytes * 2;
    for (PlatformKind kind : kGridPlatforms) {
        harness::Cell c;
        c.key.workload = "CC";
        c.key.heapBytes = heap;
        c.platform = kind;
        c.label = std::string("CC on ") + sim::platformName(kind);
        cells.push_back(c);
    }
    // No trace cache: goldens must not depend on cache state.
    harness::ExperimentRunner runner(harness::RunnerConfig{
        0, std::string()});
    auto results = runner.run(cells);
    std::vector<GridCell> grid;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_TRUE(results[i].ok)
            << cells[i].label << ": " << results[i].error;
        grid.push_back(GridCell{cells[i].label,
                                results[i].timing.gcSeconds});
    }
    return grid;
}

std::string
fmt(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

TEST(BackendGolden, FourWayGridMatchesGolden)
{
    auto grid = measureGrid();
    if (::testing::Test::HasFailure())
        return;

    if (std::getenv("CHARON_UPDATE_GOLDEN") != nullptr) {
        std::ofstream os(gridGoldenPath());
        ASSERT_TRUE(os) << "cannot write " << gridGoldenPath();
        os << "{\n  \"comment\": \"regenerate with "
              "CHARON_UPDATE_GOLDEN=1 test_backend; see "
              "EXPERIMENTS.md\",\n  \"cells\": [\n";
        for (std::size_t i = 0; i < grid.size(); ++i) {
            os << "    {\"label\": \"" << grid[i].label
               << "\", \"gcSeconds\": " << fmt(grid[i].gcSeconds)
               << "}" << (i + 1 < grid.size() ? "," : "") << "\n";
        }
        os << "  ]\n}\n";
        std::printf("golden file updated: %s\n",
                    gridGoldenPath().c_str());
        return;
    }

    std::ifstream is(gridGoldenPath());
    ASSERT_TRUE(is) << "missing " << gridGoldenPath()
                    << " (generate with CHARON_UPDATE_GOLDEN=1)";
    std::stringstream ss;
    ss << is.rdbuf();
    auto root = testjson::parse(ss.str());
    auto cells = root->get("cells");
    ASSERT_TRUE(cells && cells->isArray());
    ASSERT_EQ(cells->array.size(), grid.size())
        << "grid changed; regenerate the golden file";
    for (std::size_t i = 0; i < grid.size(); ++i) {
        SCOPED_TRACE(grid[i].label);
        EXPECT_EQ(grid[i].label, cells->array[i]->str("label"));
        double golden = cells->array[i]->num("gcSeconds");
        double scale = std::max(
            {1.0, std::abs(grid[i].gcSeconds), std::abs(golden)});
        EXPECT_LE(std::abs(grid[i].gcSeconds - golden), 1e-6 * scale)
            << "actual " << fmt(grid[i].gcSeconds) << " vs golden "
            << fmt(golden)
            << "; if the model changed intentionally, regenerate "
               "with CHARON_UPDATE_GOLDEN=1";
    }
}

TEST(BackendGolden, IgpuReproducesTheNoWinResult)
{
    // The structural headline: offload engines that sit on the host
    // side of the memory controller do not beat the host at GC.
    auto grid = measureGrid();
    if (::testing::Test::HasFailure())
        return;
    ASSERT_EQ(grid.size(), 4u);
    double host = grid[0].gcSeconds;
    double igpu = grid[1].gcSeconds;
    double charon = grid[2].gcSeconds;
    EXPECT_LE(host / igpu, 1.05)
        << "the iGPU backend must not meaningfully beat the host";
    EXPECT_GT(host / charon, 1.5)
        << "near-memory placement must keep a clear win on the same "
           "trace";
}
