/**
 * @file
 * Tests of the collector capability model (gc/capability.hh):
 *
 *  - every collector's declared CapabilitySet is honest against the
 *    trace it records (nothing non-declared is ever marked
 *    offloadable, and the flagship primitives actually appear);
 *  - an empty capability set degrades the whole run to the host
 *    path: the Charon replay of such a trace is identical to the
 *    accelerator-free HostHmc replay;
 *  - heap-metadata fault kinds are filtered by the capability set
 *    (no card-table faults against a collector with no card table).
 */

#include <gtest/gtest.h>

#include <memory>

#include "fault/inject.hh"
#include "gc/capability.hh"
#include "gc/verify.hh"
#include "platform/platform_sim.hh"
#include "workload/mutator.hh"

using namespace charon;
using gc::CapabilitySet;
using gc::PrimKind;

namespace
{

struct Recorded
{
    gc::RunTrace trace;
    CapabilitySet caps;
    int cubeShift = 0;
};

/** Run the cheapest calibrated workload under @p model. */
Recorded
record(gc::CollectorModel model)
{
    const auto &params = workload::findWorkload("CC");
    // The RC collector serves every allocation from the old space,
    // so it needs the full catalog heap; G1 keeps the catalog heap;
    // the generational families are happy with far less.
    std::uint64_t heap = params.minHeapBytes * 2;
    if (model == gc::CollectorModel::Rc)
        heap = params.heapBytes * 2;
    else if (model == gc::CollectorModel::G1)
        heap = params.heapBytes;
    workload::Mutator mut(params, heap, 1, 8, 4, model);
    CapabilitySet caps = mut.collector().capabilities();
    auto r = mut.run();
    EXPECT_FALSE(r.oom) << "OOM under "
                        << gc::collectorToken(model);
    return Recorded{mut.recorder().run(), caps, mut.cubeShift()};
}

/** Union of primitives with any recorded invocations. */
std::uint32_t
observedMask(const gc::RunTrace &trace)
{
    std::uint32_t mask = 0;
    for (const auto &g : trace.gcs) {
        for (int k = 0; k < gc::kNumPrimKinds; ++k) {
            auto kind = static_cast<PrimKind>(k);
            if (g.totalInvocations(kind) > 0)
                mask |= gc::primBit(kind);
        }
    }
    return mask;
}

/** Every declaration-related invariant one trace must satisfy. */
void
checkHonest(const Recorded &rec, const char *who)
{
    SCOPED_TRACE(who);
    ASSERT_FALSE(rec.trace.gcs.empty());
    for (const auto &g : rec.trace.gcs) {
        EXPECT_EQ(g.capabilityMask, rec.caps.primMask);
        for (const auto &phase : g.phases) {
            phase.forEachBucket([&](const gc::Bucket &b) {
                if (!b.hostOnly) {
                    EXPECT_TRUE(rec.caps.canOffload(b.kind))
                        << "offloadable bucket of undeclared kind "
                        << gc::primKindName(b.kind);
                }
            });
        }
    }
}

} // namespace

// ----------------------------------------------------------------------
// (a) declared set vs. trace emissions, per collector family

TEST(Capability, ParallelScavengeDeclarationMatchesTrace)
{
    auto rec = record(gc::CollectorModel::ParallelScavenge);
    checkHonest(rec, "ps");
    // PS exercises the paper's full primitive set, nothing more.
    EXPECT_EQ(observedMask(rec.trace),
              gc::primBit(PrimKind::Copy) | gc::primBit(PrimKind::Search)
                  | gc::primBit(PrimKind::ScanPush)
                  | gc::primBit(PrimKind::BitmapCount));
    EXPECT_EQ(rec.caps.primMask, observedMask(rec.trace));
}

TEST(Capability, G1DeclarationMatchesTrace)
{
    auto rec = record(gc::CollectorModel::G1);
    checkHonest(rec, "g1");
    // Evacuation Copy + Scan&Push; no card-table Search (remembered
    // sets replace it).
    std::uint32_t observed = observedMask(rec.trace);
    EXPECT_TRUE(observed & gc::primBit(PrimKind::Copy));
    EXPECT_TRUE(observed & gc::primBit(PrimKind::ScanPush));
    EXPECT_FALSE(observed & gc::primBit(PrimKind::Search));
    EXPECT_FALSE(rec.caps.hasCardTable);
}

TEST(Capability, CmsDeclarationMatchesTrace)
{
    auto rec = record(gc::CollectorModel::Cms);
    checkHonest(rec, "cms");
    std::uint32_t observed = observedMask(rec.trace);
    // The sweep records its free-run discovery as Bit Sweep...
    EXPECT_TRUE(observed & gc::primBit(PrimKind::BitSweep));
    // ...never as the compactor's Bitmap Count capability.
    EXPECT_FALSE(rec.caps.canOffload(PrimKind::BitmapCount));
}

TEST(Capability, RcDeclarationMatchesTrace)
{
    auto rec = record(gc::CollectorModel::Rc);
    checkHonest(rec, "rc");
    std::uint32_t observed = observedMask(rec.trace);
    EXPECT_TRUE(observed & gc::primBit(PrimKind::RefCount));
    // Pure RC maintains no generational card table.
    EXPECT_FALSE(rec.caps.hasCardTable);
    EXPECT_FALSE(observed & gc::primBit(PrimKind::Search));
}

// ----------------------------------------------------------------------
// (b) empty capability set == pure host execution

TEST(Capability, EmptySetDegradesCharonReplayToHost)
{
    const auto &params = workload::findWorkload("CC");
    workload::Mutator mut(params, params.minHeapBytes * 2, 1, 8, 4);
    // Withdraw every capability before the first collection: all
    // buckets must record hostOnly and the mask must be stamped 0.
    mut.recorder().setCapabilities(CapabilitySet::none());
    auto r = mut.run();
    ASSERT_FALSE(r.oom);
    const gc::RunTrace trace = mut.recorder().run();
    ASSERT_FALSE(trace.gcs.empty());
    for (const auto &g : trace.gcs) {
        EXPECT_EQ(g.capabilityMask, 0u);
        for (const auto &phase : g.phases) {
            phase.forEachBucket([&](const gc::Bucket &b) {
                EXPECT_TRUE(b.hostOnly);
            });
        }
    }

    // The same trace replayed on Charon and on the accelerator-free
    // HMC host must agree exactly: with nothing to offload, the
    // accelerator must cost nothing and contribute nothing.
    auto cfg = sim::SystemConfig::table2();
    platform::PlatformSim charon(sim::PlatformKind::CharonNmp, cfg,
                                 mut.cubeShift());
    platform::PlatformSim host(sim::PlatformKind::HostHmc, cfg,
                               mut.cubeShift());
    auto a = charon.simulate(trace);
    auto b = host.simulate(trace);
    EXPECT_EQ(a.gcSeconds, b.gcSeconds);
    EXPECT_EQ(a.minorSeconds, b.minorSeconds);
    EXPECT_EQ(a.majorSeconds, b.majorSeconds);
    EXPECT_EQ(a.mutatorSeconds, b.mutatorSeconds);
    EXPECT_EQ(a.dramBytes, b.dramBytes);
    for (bool major : {false, true}) {
        for (int k = 0; k < gc::kNumPrimKinds; ++k) {
            auto kind = static_cast<PrimKind>(k);
            EXPECT_EQ(a.threadSeconds(major, kind),
                      b.threadSeconds(major, kind));
        }
        EXPECT_EQ(a.threadSeconds(major, std::nullopt),
                  b.threadSeconds(major, std::nullopt));
    }
}

// ----------------------------------------------------------------------
// (c) fault-kind applicability is capability-filtered

TEST(Capability, FaultAppliesFollowsMetadataCapabilities)
{
    CapabilitySet none = CapabilitySet::none();
    CapabilitySet all = CapabilitySet::all();
    CapabilitySet bitmap_only;
    bitmap_only.hasMarkBitmap = true;

    EXPECT_TRUE(fault::faultApplies(fault::FaultKind::CardFlip, all));
    EXPECT_FALSE(fault::faultApplies(fault::FaultKind::CardFlip, none));
    EXPECT_FALSE(
        fault::faultApplies(fault::FaultKind::CardFlip, bitmap_only));
    EXPECT_TRUE(fault::faultApplies(fault::FaultKind::MarkBitmapFlip,
                                    bitmap_only));
    EXPECT_FALSE(
        fault::faultApplies(fault::FaultKind::MarkBitmapFlip, none));
    // Timing-layer kinds are structure-independent: always in scope.
    EXPECT_TRUE(fault::faultApplies(fault::FaultKind::UnitStall, none));
    EXPECT_TRUE(
        fault::faultApplies(fault::FaultKind::LinkDegrade, none));
}

TEST(Capability, HeapFaultsSkipStructuresTheCollectorLacks)
{
    heap::KlassTable klasses;
    auto node = klasses.defineInstance("Node", 2, 2);
    heap::HeapConfig cfg;
    cfg.heapBytes = 16 * sim::kMiB;
    heap::ManagedHeap heap(cfg, klasses);
    heap.roots().clear();
    for (int i = 0; i < 32; ++i) {
        mem::Addr old = heap.allocOldObject(node);
        mem::Addr young = heap.allocEden(node);
        heap.storeRef(old, 0, young);
        heap.roots().push_back(old);
    }
    gc::populateMarkBitmaps(heap);

    fault::FaultPlan plan;
    plan.seed = 5;
    fault::FaultSpec card;
    card.kind = fault::FaultKind::CardFlip;
    card.count = 4;
    fault::FaultSpec bits;
    bits.kind = fault::FaultKind::MarkBitmapFlip;
    bits.count = 4;
    plan.specs = {card, bits};

    // A collector without a card table: only the bitmap spec lands,
    // and the card table audit stays clean.
    CapabilitySet caps;
    caps.hasMarkBitmap = true;
    EXPECT_EQ(fault::applyHeapFaults(heap, plan, caps), 4u);
    EXPECT_TRUE(gc::verifyCardTable(heap).ok());
    EXPECT_FALSE(gc::verifyMarkBitmaps(heap).ok());

    // No metadata at all: the whole plan is inert.
    gc::populateMarkBitmaps(heap); // repair the bitmaps
    EXPECT_EQ(
        fault::applyHeapFaults(heap, plan, CapabilitySet::none()), 0u);
    EXPECT_TRUE(gc::verifyCardTable(heap).ok());
    EXPECT_TRUE(gc::verifyMarkBitmaps(heap).ok());
}
