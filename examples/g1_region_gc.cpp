/**
 * @file
 * G1 scenario: drive the region-based Garbage-First collector through
 * young, marking, and mixed cycles, watch the region population
 * evolve, and replay the recorded trace on Charon — demonstrating the
 * paper's Table 1 claim that the primitives carry over to a
 * latency-oriented collector.
 *
 * Build & run:
 *   ./build/examples/g1_region_gc
 */

#include <cstdio>
#include <deque>
#include <iostream>

#include "gc/g1_collector.hh"
#include "gc/verify.hh"
#include "platform/platform_sim.hh"
#include "report/table.hh"
#include "sim/rng.hh"
#include "workload/mutator.hh" // chooseCubeShift

using namespace charon;

namespace
{

void
printRegionCensus(const heap::G1Heap &heap, const char *when)
{
    std::printf("%-26s free=%2d eden=%2d survivor=%2d old=%2d "
                "humongous=%2d\n",
                when, heap.regionCount(heap::G1RegionKind::Free),
                heap.regionCount(heap::G1RegionKind::Eden),
                heap.regionCount(heap::G1RegionKind::Survivor),
                heap.regionCount(heap::G1RegionKind::Old),
                heap.regionCount(heap::G1RegionKind::Humongous));
}

} // namespace

int
main()
{
    heap::KlassTable klasses;
    auto node = klasses.defineInstance("Entity", 2, 3);
    heap::G1Config cfg;
    cfg.heapBytes = 32 * sim::kMiB;
    cfg.regionBytes = 1 * sim::kMiB;
    cfg.maxEdenRegions = 6;
    heap::G1Heap heap(cfg, klasses);
    int cube_shift = workload::chooseCubeShift(heap.vaLimit());
    gc::TraceRecorder rec(8, cube_shift);
    gc::G1Collector g1(heap, rec);

    std::printf("G1 heap: %d regions of %llu KiB\n", heap.numRegions(),
                static_cast<unsigned long long>(cfg.regionBytes >> 10));
    printRegionCensus(heap, "at start:");

    // A service with a sliding working set plus a humongous buffer.
    mem::Addr big = heap.allocateHumongous(
        klasses.doubleArrayId(), 3 * cfg.regionBytes / 8 / 2);
    heap.roots().push_back(big);
    sim::Rng rng(3);
    std::deque<std::size_t> window;
    std::uint64_t allocated = 0;
    for (int i = 0; i < 1500000; ++i) {
        mem::Addr obj = heap.allocate(node);
        if (obj == 0) {
            auto outcome = g1.onAllocationFailure(/*humongous=*/false);
            if (outcome == gc::GcOutcome::OutOfMemory) {
                std::printf("out of memory!\n");
                return 1;
            }
            obj = heap.allocate(node);
        }
        ++allocated;
        if (obj != 0 && rng.chance(0.35)) {
            heap.roots().push_back(obj);
            window.push_back(heap.roots().size() - 1);
            if (window.size() > 150000) {
                heap.roots()[window.front()] = 0;
                window.pop_front();
            }
        }
    }
    printRegionCensus(heap, "after the run:");
    std::printf("allocated %llu objects; %llu young, %llu mixed "
                "collections, %llu marking cycles\n",
                static_cast<unsigned long long>(allocated),
                static_cast<unsigned long long>(g1.minorCount()),
                static_cast<unsigned long long>(g1.majorCount()),
                static_cast<unsigned long long>(g1.markCount()));
    heap.verify();

    // The humongous buffer is dropped; the next marking reclaims its
    // regions without any copying.
    heap.roots()[0] = 0;
    int before = heap.regionCount(heap::G1RegionKind::Humongous);
    auto mark = g1.concurrentMark();
    std::printf("dropped the humongous buffer: marking freed %d of "
                "%d humongous regions\n",
                mark.humongousFreed > 0
                    ? before
                          - heap.regionCount(
                              heap::G1RegionKind::Humongous)
                    : 0,
                before);

    // Replay the whole G1 trace on the platforms.
    report::Table table({"platform", "GC ms", "speedup"});
    double base = 0;
    for (auto kind : {sim::PlatformKind::HostDdr4,
                      sim::PlatformKind::CharonNmp}) {
        platform::PlatformSim sim_(kind, sim::SystemConfig{},
                                   cube_shift);
        auto t = sim_.simulate(rec.run());
        if (base == 0)
            base = t.gcSeconds;
        table.addRow({sim::platformName(kind),
                      report::num(t.gcSeconds * 1e3, 2),
                      report::times(base / t.gcSeconds)});
    }
    table.print(std::cout);
    std::printf("\nCharon accelerates G1 the same way it accelerates "
                "ParallelScavenge: evacuation is Copy + Scan&Push and "
                "region liveness is Bitmap Count (paper Table 1)\n");
    return 0;
}
