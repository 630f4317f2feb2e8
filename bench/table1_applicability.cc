/**
 * @file
 * Table 1: applicability of the Charon primitives to the HotSpot
 * collector families — demonstrated by actually running each
 * collector in this repository and checking which primitives its
 * trace contains.
 *
 *  - ParallelScavenge (our Scavenge + MarkCompact): all three.
 *  - G1 (our region-based G1Heap + G1Collector): Copy and Scan&Push
 *    in evacuation, Bitmap Count in the per-region liveness pass
 *    after marking.
 *  - CMS-style mark-sweep (our MarkSweep + a young scavenge): Copy
 *    and Scan&Push, but never Bitmap Count (no compaction).
 *
 * These are functional-only cells (replay = false): the deliverable
 * is the trace itself, not a timing.  The G1 demo and the CMS
 * pipeline assemble bespoke collector stacks, so they run through the
 * harness's customRun escape hatch and are never cached.
 */

#include <deque>

#include "bench_common.hh"

#include "gc/g1_collector.hh"
#include "gc/mark_sweep.hh"
#include "gc/recorder.hh"
#include "gc/scavenge.hh"
#include "sim/rng.hh"
#include "workload/mutator.hh"

using namespace charon;
using namespace charon::bench;
using gc::PrimKind;

namespace
{

struct Usage
{
    bool copy = false;
    bool search = false;
    bool scanPush = false;
    bool bitmapCount = false;
};

Usage
scan(const gc::RunTrace &trace)
{
    Usage u;
    for (const auto &gc : trace.gcs) {
        u.copy |= gc.totalInvocations(PrimKind::Copy) > 0;
        u.search |= gc.totalInvocations(PrimKind::Search) > 0;
        u.scanPush |= gc.totalInvocations(PrimKind::ScanPush) > 0;
        u.bitmapCount |= gc.totalInvocations(PrimKind::BitmapCount) > 0;
    }
    return u;
}

const char *
mark(bool used)
{
    return used ? "yes" : "no";
}

/** G1 through young, mark, and mixed cycles on a graph workload. */
harness::FunctionalRun
g1Demo()
{
    heap::KlassTable klasses;
    auto node = klasses.defineInstance("Node", 2, 2);
    heap::G1Config cfg;
    cfg.heapBytes = 32 * sim::kMiB;
    cfg.regionBytes = 512 * 1024;
    heap::G1Heap heap(cfg, klasses);
    gc::TraceRecorder rec(8,
                          workload::chooseCubeShift(heap.vaLimit()));
    gc::G1Collector g1(heap, rec);
    sim::Rng rng(5);
    std::deque<std::size_t> window;
    for (int i = 0; i < 400000; ++i) {
        mem::Addr obj = heap.allocate(node);
        if (obj == 0) {
            if (g1.onAllocationFailure(/*humongous=*/false)
                == gc::GcOutcome::OutOfMemory) {
                break;
            }
            obj = heap.allocate(node);
        }
        if (obj != 0 && rng.chance(0.4)) {
            heap.roots().push_back(obj);
            window.push_back(heap.roots().size() - 1);
            if (window.size() > 60000) {
                heap.roots()[window.front()] = 0;
                window.pop_front();
            }
        }
    }
    // Complete the G1 cycle explicitly (System.gc()-style): marking
    // computes per-region liveness with Bitmap Count, then a mixed
    // collection evacuates the sparse old regions.
    g1.concurrentMark();
    g1.mixedCollect();

    harness::FunctionalRun out;
    out.trace = rec.run();
    return out;
}

/** CMS-style: young scavenges plus old mark-sweep, no compactor. */
harness::FunctionalRun
cmsDemo()
{
    const auto &params = workload::findWorkload("KM");
    workload::Mutator mut(params, params.heapBytes, 1);
    // Build some state with the normal mutator, then run the
    // non-moving old-generation collector on top.
    mut.run();
    gc::MarkSweep ms(mut.generationalHeap(), mut.recorder());
    ms.collect();
    // Only inspect the mark-sweep GC (the last trace entry) plus one
    // scavenge for the young generation.
    gc::RunTrace cms;
    cms.gcs.push_back(mut.recorder().run().gcs.back());
    gc::Scavenge sc(mut.generationalHeap(), mut.recorder());
    sc.collect();
    cms.gcs.push_back(mut.recorder().run().gcs.back());

    harness::FunctionalRun out;
    out.trace = std::move(cms);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    auto opt = harness::standardOptions(argc, argv);
    ExperimentRunner runner(opt.runnerConfig());
    Report report(opt);

    // ParallelScavenge rides the normal keyed path (and so shares the
    // cached KM trace with the figure benches); the other two are
    // bespoke pipelines.
    std::vector<Cell> cells;
    {
        Cell ps = cell("KM", sim::PlatformKind::HostDdr4);
        ps.replay = false;
        ps.label = "ParallelScavenge (KM)";
        cells.push_back(ps);
    }
    {
        Cell g1;
        g1.replay = false;
        g1.customRun = g1Demo;
        g1.label = "G1 demo";
        cells.push_back(g1);
    }
    {
        Cell cms;
        cms.replay = false;
        cms.customRun = cmsDemo;
        cms.label = "CMS demo (mark-sweep)";
        cells.push_back(cms);
    }
    auto results = runner.run(cells);

    auto &table = report.table(
        "table1",
        "Table 1: primitive applicability, demonstrated by running "
        "each collector",
        {"collector", "Copy/Search", "Scan&Push", "Bitmap Count",
         "remarks"});
    Usage cms_usage;
    bool cms_ok = false;
    const char *names[] = {"ParallelScavenge", "G1",
                           "CMS (mark-sweep)"};
    const char *remarks[] = {"high throughput", "low latency",
                             "no compaction"};
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (!report.checkCell(cells[i], results[i]))
            continue;
        Usage u = scan(results[i].run->trace);
        if (i == 0) {
            table.addRow({names[i], mark(u.copy && u.search),
                          mark(u.scanPush), mark(u.bitmapCount),
                          remarks[i]});
        } else {
            table.addRow({names[i], mark(u.copy), mark(u.scanPush),
                          mark(u.bitmapCount), remarks[i]});
        }
        if (i == 2) {
            cms_usage = u;
            cms_ok = true;
        }
    }
    table.note("\npaper Table 1: ParallelScavenge uses all three; G1 "
               "uses all three (Bitmap Count with a minor fix); CMS "
               "uses Copy/Search and Scan&Push but not Bitmap Count");
    report.addRollups(cells, results);
    harness::finishTimeline(runner, opt);
    int rc = report.finish(std::cout);
    // The load-bearing check: a compactor-free collector never calls
    // Bitmap Count.
    if (cms_ok && cms_usage.bitmapCount) {
        std::cerr << "ERROR: mark-sweep produced Bitmap Count calls\n";
        return 1;
    }
    return rc;
}
