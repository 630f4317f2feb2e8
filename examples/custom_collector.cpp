/**
 * @file
 * Custom-collector scenario: a CMS-style old-generation cycle built
 * from the library's pieces — young scavenges for allocation churn,
 * a non-moving mark-sweep over Old, and free-list re-allocation into
 * the swept holes — demonstrating Table 1's point that the Charon
 * primitives serve collectors beyond ParallelScavenge (Copy and
 * Scan&Push apply; Bitmap Count never fires without compaction).
 *
 * Build & run:
 *   ./build/examples/custom_collector
 */

#include <cstdio>
#include <deque>

#include "gc/mark_sweep.hh"
#include "gc/recorder.hh"
#include "gc/scavenge.hh"
#include "gc/verify.hh"
#include "heap/heap.hh"
#include "workload/mutator.hh" // chooseCubeShift

using namespace charon;

int
main()
{
    heap::KlassTable klasses;
    auto record = klasses.defineInstance("Record", 1, 6);
    heap::HeapConfig cfg;
    cfg.heapBytes = 32 * sim::kMiB;
    cfg.tenuringThreshold = 1; // tenure aggressively into Old
    heap::ManagedHeap heap(cfg, klasses);
    gc::TraceRecorder recorder(8,
                               workload::chooseCubeShift(heap.vaLimit()));

    // Churn: allocate records, keep a sliding window alive so the
    // old generation fills with a mix of live and dead data.
    std::deque<std::size_t> window;
    std::uint64_t allocated = 0;
    auto alloc_one = [&] {
        mem::Addr obj = heap.allocEden(record);
        if (obj == 0) {
            gc::Scavenge(heap, recorder).collect();
            obj = heap.allocEden(record);
        }
        heap.roots().push_back(obj);
        window.push_back(heap.roots().size() - 1);
        if (window.size() > 20000) {
            heap.roots()[window.front()] = 0;
            window.pop_front();
        }
        ++allocated;
    };
    while (heap.region(heap::Space::Old).free() > 4 * sim::kMiB)
        alloc_one();
    std::printf("old generation filled: %llu records allocated, "
                "%llu KiB used\n",
                static_cast<unsigned long long>(allocated),
                static_cast<unsigned long long>(
                    heap.region(heap::Space::Old).used() >> 10));

    // CMS-style old collection: mark + sweep, nothing moves.
    auto fp = gc::fingerprintGraph(heap);
    gc::MarkSweep ms(heap, recorder);
    auto result = ms.collect();
    std::printf("mark-sweep: %llu live objects (%llu KiB), reclaimed "
                "%llu KiB into %llu free chunks\n",
                static_cast<unsigned long long>(result.liveObjects),
                static_cast<unsigned long long>(result.liveBytes >> 10),
                static_cast<unsigned long long>(result.freedBytes >> 10),
                static_cast<unsigned long long>(result.freeChunks));
    if (!(gc::fingerprintGraph(heap) == fp)) {
        std::printf("ERROR: mark-sweep changed the live graph!\n");
        return 1;
    }

    // Reuse the holes without moving anything.
    std::uint64_t reused = 0;
    while (ms.allocateFromFreeList(record) != 0)
        ++reused;
    std::printf("free-list allocation reused the holes for %llu new "
                "records\n",
                static_cast<unsigned long long>(reused));
    heap.verifySpace(heap::Space::Old);

    // Table 1 in action: which primitives did this collector need?
    const auto &trace = recorder.run();
    std::uint64_t copy = 0, scan = 0, bitmap = 0;
    for (const auto &gc : trace.gcs) {
        copy += gc.totalInvocations(gc::PrimKind::Copy);
        scan += gc.totalInvocations(gc::PrimKind::ScanPush);
        bitmap += gc.totalInvocations(gc::PrimKind::BitmapCount);
    }
    std::printf("\nprimitive usage across the run: Copy %llu (young "
                "scavenges), Scan&Push %llu, Bitmap Count %llu\n",
                static_cast<unsigned long long>(copy),
                static_cast<unsigned long long>(scan),
                static_cast<unsigned long long>(bitmap));
    std::printf("a non-compacting collector never needs Bitmap Count "
                "— Table 1's CMS row\n");
    return bitmap == 0 ? 0 : 1;
}
