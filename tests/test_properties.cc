/**
 * @file
 * Cross-cutting property tests: conservation laws in the fluid
 * bandwidth model, agreement between independent collector
 * implementations on the same heap, and trace-accounting identities
 * that every workload run must satisfy.
 */

#include <gtest/gtest.h>

#include "gc/collector.hh"
#include "gc/mark_compact.hh"
#include "gc/mark_sweep.hh"
#include "gc/recorder.hh"
#include "gc/scavenge.hh"
#include "gc/verify.hh"
#include "mem/fluid_channel.hh"
#include "sim/event_queue.hh"
#include "sim/join.hh"
#include "sim/rng.hh"
#include "workload/mutator.hh"

using namespace charon;
using charon::sim::EventQueue;
using charon::sim::Rng;
using charon::sim::Tick;
using mem::Addr;

// ---------------------------------------------------------------------
// Fluid channel conservation

TEST(FluidChannelProperty, BytesAreConservedUnderRandomTraffic)
{
    // Whatever the arrival pattern, every flow must finish, the byte
    // accounting must match the offered load, and no flow may finish
    // faster than capacity allows.
    for (std::uint64_t seed : {1u, 7u, 42u, 1234u}) {
        Rng rng(seed);
        EventQueue eq;
        double capacity = 0.5 + rng.uniform() * 4.0;
        mem::FluidChannel ch(eq, "prop", capacity);
        sim::JoinPool joins(eq);

        std::uint64_t offered = 0;
        int finished = 0;
        int flows = 64;
        Tick last_finish = 0;
        for (int i = 0; i < flows; ++i) {
            Tick start = rng.below(5000);
            std::uint64_t bytes = 1 + rng.below(20000);
            double cap = rng.chance(0.5)
                             ? 0.0
                             : capacity * (0.05 + rng.uniform());
            offered += bytes;
            eq.schedule(start, [&, bytes, cap] {
                ch.startFlow(bytes, cap, joins.acquire(1, [&](Tick t) {
                    ++finished;
                    last_finish = std::max(last_finish, t);
                }));
            });
        }
        eq.run();
        EXPECT_EQ(finished, flows) << "seed " << seed;
        EXPECT_DOUBLE_EQ(ch.totalBytes(),
                         static_cast<double>(offered));
        // The pipe cannot move offered bytes faster than capacity.
        EXPECT_GE(static_cast<double>(last_finish) + 1,
                  static_cast<double>(offered) / capacity)
            << "seed " << seed;
        // Utilization integral equals offered / capacity.
        EXPECT_NEAR(ch.utilizedTicks(),
                    static_cast<double>(offered) / capacity,
                    static_cast<double>(flows) + 64.0)
            << "seed " << seed;
    }
}

// ---------------------------------------------------------------------
// Collector agreement: mark-sweep's live set == mark-compact's

TEST(CollectorAgreement, MarkSweepAndMarkCompactAgreeOnLiveness)
{
    for (std::uint64_t seed : {3u, 17u, 91u}) {
        heap::KlassTable klasses;
        auto node = klasses.defineInstance("Node", 2, 2);
        heap::HeapConfig cfg;
        cfg.heapBytes = 16 * sim::kMiB;
        heap::ManagedHeap heap(cfg, klasses);
        gc::TraceRecorder rec(4, 22);

        Rng rng(seed);
        std::vector<Addr> objs;
        for (int i = 0; i < 1500; ++i) {
            Addr o = heap.allocOldObject(node);
            ASSERT_NE(o, 0u);
            objs.push_back(o);
        }
        for (Addr o : objs) {
            for (std::uint64_t s = 0; s < 2; ++s) {
                if (rng.chance(0.5))
                    heap.storeRef(o, s, objs[rng.below(objs.size())]);
            }
        }
        for (Addr o : objs) {
            if (rng.chance(0.1))
                heap.roots().push_back(o);
        }

        // Mark-sweep (non-moving) measures the live set...
        gc::MarkSweep ms(heap, rec);
        auto sweep = ms.collect();
        // ...and mark-compact on the same (unchanged) graph must find
        // exactly the same live objects and bytes.
        gc::MarkCompact mc(heap, rec);
        auto compact = mc.collect();
        EXPECT_EQ(sweep.liveObjects, compact.liveObjects)
            << "seed " << seed;
        EXPECT_EQ(sweep.liveBytes, compact.liveBytes)
            << "seed " << seed;
    }
}

// ---------------------------------------------------------------------
// Trace accounting identities on real workload runs

TEST(TraceIdentity, CopyBytesMatchFunctionalOutcome)
{
    const auto &params = workload::findWorkload("KM");
    workload::Mutator mut(params, params.heapBytes, 5);
    mut.run();
    for (const auto &gc : mut.recorder().run().gcs) {
        // Per-GC aggregate recorded by the collector equals the sum
        // of Copy bucket payloads in the trace.
        std::uint64_t bucket_bytes = 0;
        for (const auto &phase : gc.phases) {
            phase.forEachBucket([&](const gc::Bucket &b) {
                if (b.kind == gc::PrimKind::Copy)
                    bucket_bytes += b.seqReadBytes;
            });
        }
        EXPECT_EQ(bucket_bytes, gc.bytesCopied);
    }
}

TEST(TraceIdentity, ScanPushRefsNeverExceedRandomAccesses)
{
    const auto &params = workload::findWorkload("CC");
    workload::Mutator mut(params, params.heapBytes, 5);
    mut.run();
    for (const auto &gc : mut.recorder().run().gcs) {
        for (const auto &phase : gc.phases) {
            phase.forEachBucket([&](const gc::Bucket &b) {
                if (b.kind != gc::PrimKind::ScanPush)
                    return;
                EXPECT_LE(b.refsVisited, b.randomAccesses);
                EXPECT_LE(b.bitmapRmwAccesses, b.randomAccesses);
                EXPECT_EQ(b.randomBytes, b.randomAccesses * 16);
            });
        }
    }
}

TEST(TraceIdentity, EveryPhaseHasConfiguredThreadCount)
{
    const auto &params = workload::findWorkload("ALS");
    for (int threads : {1, 4, 8}) {
        workload::Mutator mut(params, params.heapBytes, 5, threads);
        mut.run();
        for (const auto &gc : mut.recorder().run().gcs) {
            for (const auto &phase : gc.phases) {
                EXPECT_EQ(phase.threads.size(),
                          static_cast<std::size_t>(threads));
            }
        }
    }
}

TEST(TraceIdentity, MinorAndMajorPhasesNeverMix)
{
    const auto &params = workload::findWorkload("PR");
    workload::Mutator mut(params, params.heapBytes, 5);
    mut.run();
    for (const auto &gc : mut.recorder().run().gcs) {
        for (const auto &phase : gc.phases) {
            bool is_major_phase =
                phase.kind == gc::PhaseKind::MajorMark
                || phase.kind == gc::PhaseKind::MajorSummary
                || phase.kind == gc::PhaseKind::MajorCompact;
            EXPECT_EQ(is_major_phase, gc.major);
        }
    }
}

// ---------------------------------------------------------------------
// Scavenge demand oracle

TEST(ScavengeOracle, EstimateMatchesActualCollection)
{
    // The pre-flight SpaceDemand (the policy oracle) must equal what
    // the scavenge then actually copies and promotes, for random
    // graphs.
    for (std::uint64_t seed : {2u, 29u, 555u}) {
        heap::KlassTable klasses;
        auto node = klasses.defineInstance("Node", 2, 2);
        heap::HeapConfig cfg;
        cfg.heapBytes = 16 * sim::kMiB;
        heap::ManagedHeap heap(cfg, klasses);
        gc::TraceRecorder rec(4, 22);

        Rng rng(seed);
        std::vector<Addr> objs;
        for (int i = 0; i < 3000; ++i) {
            Addr o = heap.allocEden(node);
            ASSERT_NE(o, 0u);
            objs.push_back(o);
        }
        for (Addr o : objs) {
            for (std::uint64_t s = 0; s < 2; ++s) {
                if (rng.chance(0.4))
                    heap.storeRef(o, s, objs[rng.below(objs.size())]);
            }
            if (rng.chance(0.2))
                heap.roots().push_back(o);
        }

        gc::Scavenge probe(heap, rec);
        auto demand = probe.estimateDemand();
        gc::Scavenge sc(heap, rec);
        auto result = sc.collect();
        EXPECT_EQ(demand.liveYoungBytes(),
                  result.bytesCopied + result.bytesPromoted)
            << "seed " << seed;
    }
}
