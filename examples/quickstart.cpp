/**
 * @file
 * Quickstart: the smallest end-to-end tour of the library.
 *
 * 1. Define classes and build a managed heap.
 * 2. Allocate an object graph and lose some of it.
 * 3. Run a minor and a major collection, with every primitive the
 *    collector executes recorded into a trace.
 * 4. Replay that trace on the host+DDR4 baseline and on Charon, and
 *    compare GC time.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "gc/collector.hh"
#include "gc/recorder.hh"
#include "gc/verify.hh"
#include "heap/heap.hh"
#include "platform/platform_sim.hh"
#include "workload/mutator.hh" // chooseCubeShift

using namespace charon;

int
main()
{
    // --- 1. Classes and heap -----------------------------------------
    heap::KlassTable klasses;
    heap::KlassId node = klasses.defineInstance("Node", /*refs=*/2,
                                                /*payload words=*/2);
    heap::HeapConfig heap_cfg;
    heap_cfg.heapBytes = 32 * sim::kMiB;
    heap::ManagedHeap heap(heap_cfg, klasses);

    // --- 2. An object graph ------------------------------------------
    // A linked list of 10k nodes, rooted at its head, plus 10k
    // unreachable nodes interleaved as garbage.
    mem::Addr head = heap.allocEden(node);
    heap.roots().push_back(head);
    mem::Addr tail = head;
    for (int i = 0; i < 9999; ++i) {
        heap.allocEden(node); // garbage
        mem::Addr next = heap.allocEden(node);
        heap.storeRef(tail, 0, next);
        tail = next;
    }
    std::printf("allocated: %llu objects, %llu KiB in Eden\n",
                static_cast<unsigned long long>(
                    heap.objectCount(heap::Space::Eden)),
                static_cast<unsigned long long>(
                    heap.region(heap::Space::Eden).used() >> 10));

    // --- 3. Collect, recording the primitive trace -------------------
    int cube_shift = workload::chooseCubeShift(heap.vaLimit());
    gc::TraceRecorder recorder(/*gc threads=*/8, cube_shift);
    gc::Collector collector(heap, recorder);

    auto fingerprint_before = gc::fingerprintGraph(heap);
    auto minor = collector.minorCollect();
    std::printf("minor GC: copied %llu objects (%llu KiB), all "
                "garbage reclaimed\n",
                static_cast<unsigned long long>(minor.objectsCopied
                                                + minor.objectsPromoted),
                static_cast<unsigned long long>(
                    (minor.bytesCopied + minor.bytesPromoted) >> 10));
    auto major = collector.fullCollect();
    std::printf("major GC: %llu live objects compacted to the bottom "
                "of Old\n",
                static_cast<unsigned long long>(major.liveObjects));

    // The live graph is bit-for-bit intact after both collections.
    if (!(gc::fingerprintGraph(heap) == fingerprint_before)) {
        std::printf("ERROR: object graph changed!\n");
        return 1;
    }
    gc::checkHeapIntegrity(heap);
    std::printf("graph fingerprint unchanged across both GCs\n");

    // --- 4. Replay the trace on two platforms ------------------------
    const auto &trace = recorder.run();
    sim::SystemConfig cfg;
    platform::PlatformSim ddr4(sim::PlatformKind::HostDdr4, cfg,
                               cube_shift);
    platform::PlatformSim charon(sim::PlatformKind::CharonNmp, cfg,
                                 cube_shift);
    auto t_ddr4 = ddr4.simulate(trace);
    auto t_charon = charon.simulate(trace);
    std::printf("GC time on host+DDR4: %.3f ms, on Charon: %.3f ms "
                "(%.2fx)\n",
                t_ddr4.gcSeconds * 1e3, t_charon.gcSeconds * 1e3,
                t_ddr4.gcSeconds / t_charon.gcSeconds);
    return 0;
}
