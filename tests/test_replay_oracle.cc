/**
 * @file
 * The replay determinism check: two fresh PlatformSim instances
 * replaying the same trace on the same platform must agree bit for
 * bit.  Byte-identical reports at any --jobs count rest on this,
 * because the harness replays every cell on its own fresh instance
 * on whichever worker thread picks it up.
 *
 * "Bit for bit" is taken literally: every timing double, every
 * per-collection breakdown, every roll-up cell, the executed event
 * count, and the full timeline event stream (type, track, name,
 * ticks, counter values, in emission order) are compared with exact
 * equality — no tolerances.  The corpus is real traces from all four
 * collector families ({ps, g1, cms, rc}) plus seeded randomized
 * synthetic traces, each replayed on all five platforms.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "gc/rollup.hh"
#include "platform/platform_sim.hh"
#include "sim/instrumentation.hh"
#include "sim/timeline.hh"
#include "timing_eq.hh"
#include "workload/mutator.hh"

using namespace charon;
using platform::PlatformSim;
using sim::PlatformKind;
using test::expectTimingEq;

namespace
{

constexpr PlatformKind kAllPlatforms[] = {
    PlatformKind::HostDdr4,      PlatformKind::HostHmc,
    PlatformKind::CharonNmp,     PlatformKind::CharonCpuSide,
    PlatformKind::Ideal,
};

/**
 * The two timelines must agree event-for-event in emission order —
 * the strictest observable ordering witness the simulator exposes.
 */
void
expectTimelineEq(const sim::Timeline &a, const sim::Timeline &b)
{
    ASSERT_EQ(a.trackCount(), b.trackCount());
    for (std::size_t t = 0; t < a.trackCount(); ++t) {
        EXPECT_EQ(a.trackName(static_cast<sim::Timeline::TrackId>(t)),
                  b.trackName(static_cast<sim::Timeline::TrackId>(t)));
    }
    const auto &ea = a.events();
    const auto &eb = b.events();
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t i = 0; i < ea.size(); ++i) {
        SCOPED_TRACE("event " + std::to_string(i));
        EXPECT_EQ(ea[i].type, eb[i].type);
        EXPECT_EQ(ea[i].track, eb[i].track);
        EXPECT_EQ(a.eventName(ea[i].name), b.eventName(eb[i].name));
        EXPECT_EQ(ea[i].start, eb[i].start);
        EXPECT_EQ(ea[i].end, eb[i].end);
        EXPECT_EQ(ea[i].value, eb[i].value);
    }
}

/**
 * Replay @p trace on two fresh @p kind instances, each with its own
 * timeline, and compare every observable.
 */
void
oracle(const gc::RunTrace &trace, int cube_shift, PlatformKind kind)
{
    SCOPED_TRACE(sim::platformName(kind));
    auto cfg = sim::SystemConfig::table2();

    sim::Timeline tl_a("a"), tl_b("b");
    PlatformSim sim_a(kind, cfg, cube_shift, sim::Instrumentation(&tl_a));
    PlatformSim sim_b(kind, cfg, cube_shift, sim::Instrumentation(&tl_b));

    auto a = sim_a.simulate(trace);
    auto b = sim_b.simulate(trace);
    expectTimingEq(a, b);
    expectTimelineEq(tl_a, tl_b);
    EXPECT_EQ(sim_a.executedEvents(), sim_b.executedEvents());
}

void
oracleAllPlatforms(const gc::RunTrace &trace, int cube_shift)
{
    for (PlatformKind kind : kAllPlatforms)
        oracle(trace, cube_shift, kind);
}

// ---------------------------------------------------------------------
// Real traces: all four collector families.

/** Cheapest calibrated recording of the CC workload under @p model. */
struct Recorded
{
    gc::RunTrace trace;
    int cubeShift = 0;
};

Recorded
record(gc::CollectorModel model)
{
    const auto &params = workload::findWorkload("CC");
    // RC serves every allocation from the old space, so it needs the
    // full catalog heap; G1 keeps the catalog heap; the generational
    // families need far less.
    std::uint64_t heap = params.minHeapBytes * 2;
    if (model == gc::CollectorModel::Rc)
        heap = params.heapBytes * 2;
    else if (model == gc::CollectorModel::G1)
        heap = params.heapBytes;
    workload::Mutator mut(params, heap, 1, 8, 4, model);
    auto r = mut.run();
    EXPECT_FALSE(r.oom) << "OOM under "
                        << gc::collectorToken(model);
    return Recorded{mut.recorder().run(), mut.cubeShift()};
}

TEST(ReplayOracle, ParallelScavengeTraceAllPlatforms)
{
    auto rec = record(gc::CollectorModel::ParallelScavenge);
    ASSERT_FALSE(rec.trace.gcs.empty());
    oracleAllPlatforms(rec.trace, rec.cubeShift);
}

TEST(ReplayOracle, G1TraceAllPlatforms)
{
    auto rec = record(gc::CollectorModel::G1);
    ASSERT_FALSE(rec.trace.gcs.empty());
    oracleAllPlatforms(rec.trace, rec.cubeShift);
}

TEST(ReplayOracle, CmsTraceAllPlatforms)
{
    auto rec = record(gc::CollectorModel::Cms);
    ASSERT_FALSE(rec.trace.gcs.empty());
    oracleAllPlatforms(rec.trace, rec.cubeShift);
}

TEST(ReplayOracle, RcTraceAllPlatforms)
{
    auto rec = record(gc::CollectorModel::Rc);
    ASSERT_FALSE(rec.trace.gcs.empty());
    oracleAllPlatforms(rec.trace, rec.cubeShift);
}

// ---------------------------------------------------------------------
// Seeded synthetic traces: random mixes of every primitive, empty
// calls, and host-only and offloadable rows, with shapes (thread and
// bucket counts, byte volumes) no recorded collector produces.

gc::RunTrace
makeRandomTrace(std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    auto u = [&](std::uint64_t lo, std::uint64_t hi) {
        return lo + rng() % (hi - lo + 1);
    };
    gc::RunTrace trace;
    const int ngcs = static_cast<int>(u(1, 3));
    for (int g = 0; g < ngcs; ++g) {
        gc::GcTrace gct;
        gct.major = u(0, 1) != 0;
        const int nphases = static_cast<int>(u(1, 4));
        for (int p = 0; p < nphases; ++p) {
            gc::PhaseTrace phase;
            phase.kind = static_cast<gc::PhaseKind>(u(0, 7));
            phase.bitmapCacheHitRate =
                static_cast<double>(u(0, 100)) / 100.0;
            const int nthreads = static_cast<int>(u(1, 4));
            for (int t = 0; t < nthreads; ++t) {
                gc::ThreadWork work;
                work.glueInstructions = u(0, 20000);
                work.glueMemAccesses = u(0, 500);
                const int nbuckets = static_cast<int>(u(0, 5));
                for (int bi = 0; bi < nbuckets; ++bi) {
                    gc::Bucket b;
                    b.kind = u(0, 2) != 0
                                 ? gc::PrimKind::BitmapCount
                                 : static_cast<gc::PrimKind>(u(0, 5));
                    b.srcCube = static_cast<int>(u(0, 3));
                    b.dstCube =
                        u(0, 1) ? b.srcCube : static_cast<int>(u(0, 3));
                    b.hostOnly = u(0, 1) != 0;
                    b.invocations = u(0, 1) ? u(1, 40) : 0;
                    b.seqReadBytes = u(0, 1u << 16);
                    b.writeBytes = u(0, 1u << 14);
                    b.randomAccesses = u(0, 256);
                    b.randomBytes = b.randomAccesses * 16;
                    b.refsVisited = u(0, 512);
                    b.rangeBits = u(0, 1u << 14);
                    b.bitmapRmwAccesses = u(0, b.randomAccesses);
                    b.stackPushes = u(0, 128);
                    work.buckets.push_back(b);
                }
                phase.addThread(work);
            }
            gct.phases.push_back(std::move(phase));
        }
        trace.gcs.push_back(std::move(gct));
        trace.mutatorInstructions.push_back(u(0, 1000000));
    }
    return trace;
}

TEST(ReplayOracle, SyntheticRandomTracesAllPlatforms)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        oracleAllPlatforms(makeRandomTrace(seed), 22);
    }
}

} // namespace
