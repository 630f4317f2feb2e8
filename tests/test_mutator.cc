/**
 * @file
 * Tests for the workload catalog and the synthetic mutators: every
 * workload must run to completion at its default heap, produce both
 * GC kinds where expected, keep the heap consistent throughout, and
 * hit OOM below its minimum heap.
 */

#include <gtest/gtest.h>

#include "gc/verify.hh"
#include "heap/g1_heap.hh"
#include "workload/mutator.hh"

using namespace charon;
using workload::findWorkload;
using workload::Mutator;
using workload::workloadCatalog;

TEST(Catalog, HasAllSixWorkloads)
{
    const auto &cat = workloadCatalog();
    ASSERT_EQ(cat.size(), 6u);
    const char *names[] = {"BS", "KM", "LR", "CC", "PR", "ALS"};
    for (std::size_t i = 0; i < 6; ++i)
        EXPECT_EQ(cat[i].name, names[i]);
}

TEST(Catalog, FrameworksMatchTable3)
{
    EXPECT_EQ(findWorkload("BS").framework, "Spark");
    EXPECT_EQ(findWorkload("KM").framework, "Spark");
    EXPECT_EQ(findWorkload("LR").framework, "Spark");
    EXPECT_EQ(findWorkload("CC").framework, "GraphChi");
    EXPECT_EQ(findWorkload("PR").framework, "GraphChi");
    EXPECT_EQ(findWorkload("ALS").framework, "GraphChi");
}

TEST(Catalog, HeapSizesAreTable3ScaledBy64)
{
    EXPECT_EQ(findWorkload("BS").heapBytes, 160 * sim::kMiB);  // 10 GB
    EXPECT_EQ(findWorkload("KM").heapBytes, 128 * sim::kMiB);  // 8 GB
    EXPECT_EQ(findWorkload("LR").heapBytes, 192 * sim::kMiB);  // 12 GB
    EXPECT_EQ(findWorkload("CC").heapBytes, 64 * sim::kMiB);   // 4 GB
    EXPECT_EQ(findWorkload("PR").heapBytes, 64 * sim::kMiB);
    EXPECT_EQ(findWorkload("ALS").heapBytes, 64 * sim::kMiB);
}

TEST(Catalog, LookupIsCaseInsensitive)
{
    EXPECT_EQ(findWorkload("bs").name, "BS");
    EXPECT_EQ(findWorkload("Als").name, "ALS");
}

TEST(Catalog, UnknownNameIsFatal)
{
    EXPECT_DEATH(findWorkload("nope"), "unknown workload");
}

TEST(ChooseCubeShift, SpreadsVaSpanOverFourCubes)
{
    // 256 MiB span -> 64 MiB regions -> shift 26.
    EXPECT_EQ(workload::chooseCubeShift(256ull << 20), 26);
    // Non-power-of-two span rounds up.
    EXPECT_EQ(workload::chooseCubeShift((256ull << 20) + 5), 27);
    EXPECT_EQ(workload::chooseCubeShift(1ull << 32), 30); // paper's 4 GB
}

class MutatorRun : public ::testing::TestWithParam<const char *>
{
};

TEST_P(MutatorRun, CompletesWithHealthyHeapAndBothGcKinds)
{
    const auto &params = findWorkload(GetParam());
    Mutator mut(params, params.heapBytes, /*seed=*/1);
    auto result = mut.run();

    EXPECT_FALSE(result.oom) << params.name;
    EXPECT_GT(result.minorGcs, 0u) << params.name;
    EXPECT_GT(result.majorGcs, 0u) << params.name;
    EXPECT_GT(result.allocatedBytes, params.heapBytes)
        << "should churn more than one heap's worth";
    gc::checkHeapIntegrity(mut.generationalHeap());

    // The trace must carry every GC plus per-GC mutator segments.
    const auto &run = mut.recorder().run();
    EXPECT_EQ(run.gcs.size(), result.minorGcs + result.majorGcs);
    EXPECT_EQ(run.mutatorInstructions.size(), run.gcs.size() + 1);
    EXPECT_EQ(run.minorCount(), result.minorGcs);
    EXPECT_EQ(run.majorCount(), result.majorGcs);
}

TEST_P(MutatorRun, DeterministicAcrossRuns)
{
    const auto &params = findWorkload(GetParam());
    Mutator a(params, params.heapBytes, 7);
    Mutator b(params, params.heapBytes, 7);
    auto ra = a.run();
    auto rb = b.run();
    EXPECT_EQ(ra.minorGcs, rb.minorGcs);
    EXPECT_EQ(ra.majorGcs, rb.majorGcs);
    EXPECT_EQ(ra.allocatedBytes, rb.allocatedBytes);
    EXPECT_EQ(ra.mutatorInstructions, rb.mutatorInstructions);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, MutatorRun,
                         ::testing::Values("BS", "KM", "LR", "CC", "PR",
                                           "ALS"));

TEST(Mutator, TightHeapGoesOom)
{
    const auto &params = findWorkload("CC");
    // Far below the calibrated minimum: the graph alone cannot fit.
    Mutator mut(params, params.minHeapBytes / 3, 1);
    auto result = mut.run();
    EXPECT_TRUE(result.oom);
}

TEST(Mutator, SmallerHeapMeansMoreGc)
{
    const auto &params = findWorkload("BS");
    Mutator big(params, params.heapBytes * 2, 1);
    Mutator small(params, params.heapBytes, 1);
    auto rb = big.run();
    auto rs = small.run();
    ASSERT_FALSE(rb.oom);
    ASSERT_FALSE(rs.oom);
    EXPECT_GT(rs.minorGcs + rs.majorGcs, rb.minorGcs + rb.majorGcs);
}

TEST(Mutator, SparkIsCopyHeavyGraphChiIsScanHeavy)
{
    // The demographic contract behind Figure 4: Spark minors are
    // dominated by Copy bytes; GraphChi minors visit far more
    // references per copied byte.
    auto ratio = [](const char *name) {
        const auto &p = findWorkload(name);
        Mutator mut(p, p.heapBytes, 1);
        mut.run();
        double bytes = 0, refs = 0;
        for (const auto &gc : mut.recorder().run().gcs) {
            if (gc.major)
                continue;
            bytes += static_cast<double>(gc.bytesCopied);
            refs += static_cast<double>(gc.refsVisited);
        }
        return refs / bytes;
    };
    EXPECT_GT(ratio("CC"), 5.0 * ratio("BS"));
}

TEST(Mutator, DefaultHeapIsWithinPaperFactorOfMin)
{
    // The paper sets max heaps to 1.25-2x the minimum runnable heap;
    // with our scaled demography the Table-3-derived defaults land in
    // a slightly wider 1.7-3x band of the measured OOM thresholds.
    for (const auto &w : workloadCatalog()) {
        double factor = static_cast<double>(w.heapBytes)
                        / static_cast<double>(w.minHeapBytes);
        EXPECT_GE(factor, 1.25) << w.name;
        EXPECT_LE(factor, 3.0) << w.name;
    }
}

TEST(Mutator, MinHeapCompletesWithoutOom)
{
    // The calibrated minimum must actually be runnable (that is its
    // definition); checked on the lightest workloads to keep the
    // suite fast.
    for (const char *name : {"CC", "ALS"}) {
        const auto &p = findWorkload(name);
        Mutator mut(p, p.minHeapBytes, 1);
        EXPECT_FALSE(mut.run().oom) << name;
    }
}

// ---------------------------------------------------------------------
// The same workloads on the G1 collector

constexpr auto kG1 = gc::CollectorModel::G1;

TEST(MutatorG1, RunsWorkloadsWithBothCycleKinds)
{
    for (const char *name : {"KM", "CC"}) {
        const auto &params = findWorkload(name);
        Mutator mut(params, params.heapBytes, 1, 8, 4, kG1);
        auto result = mut.run();
        EXPECT_FALSE(result.oom) << name;
        EXPECT_GT(result.minorGcs + result.majorGcs, 0u) << name;
        EXPECT_GT(result.allocatedBytes, params.heapBytes) << name;
        heap::heapAs<heap::G1Heap>(mut.heap()).verify();
        // The trace carries the primitives Table 1 promises.
        const auto &run = mut.recorder().run();
        std::uint64_t copies = 0, scans = 0;
        for (const auto &gc : run.gcs) {
            copies += gc.totalInvocations(gc::PrimKind::Copy);
            scans += gc.totalInvocations(gc::PrimKind::ScanPush);
        }
        EXPECT_GT(copies, 0u) << name;
        EXPECT_GT(scans, 0u) << name;
    }
}

TEST(MutatorG1, Deterministic)
{
    const auto &params = findWorkload("ALS");
    Mutator a(params, params.heapBytes * 2, 7, 8, 4, kG1);
    Mutator b(params, params.heapBytes * 2, 7, 8, 4, kG1);
    auto ra = a.run();
    auto rb = b.run();
    EXPECT_EQ(ra.oom, rb.oom);
    EXPECT_EQ(ra.minorGcs, rb.minorGcs);
    EXPECT_EQ(ra.majorGcs, rb.majorGcs);
    EXPECT_EQ(ra.allocatedBytes, rb.allocatedBytes);
}

TEST(MutatorG1, HumongousChurnSurvivesViaMarkingCycles)
{
    // ALS's per-iteration humongous factors demand G1's
    // humongous-allocation-failure marking path.
    const auto &params = findWorkload("ALS");
    Mutator mut(params, params.heapBytes * 2, 1, 8, 4, kG1);
    auto result = mut.run();
    EXPECT_FALSE(result.oom);
    EXPECT_GT(result.markCycles, 0u);
}

TEST(MutatorG1, RegionOfAnyHeapSizeTilesTheHeap)
{
    // 111 MiB / 64 regions is no power of two: the sizing must round
    // the heap to whole regions by division, not by masking.
    const auto &params = findWorkload("KM");
    Mutator mut(params, 111 * sim::kMiB, 1, 8, 4, kG1);
    auto result = mut.run();
    EXPECT_FALSE(result.oom);
    EXPECT_GT(result.minorGcs, 0u);
}
