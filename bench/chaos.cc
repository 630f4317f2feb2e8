/**
 * @file
 * Chaos bench: the resilience counterpart of the figure benches.
 *
 * Two tables:
 *  - "chaos": the degradation curve.  One functional trace replayed
 *    on DDR4 (baseline), on a clean Charon, and on a Charon with one
 *    injected fault per row (unit stalls/deaths, TLB poison, link and
 *    TSV degradation, cube outage) at swept severities; the last
 *    column is the fraction of the clean Charon speedup retained.
 *  - "chaos-recovery": the functional faults.  GC-internal allocation
 *    failure (promotion-failure recovery + full-GC escalation) and
 *    recorder failover must leave a verifier-clean heap; seeded card
 *    table and mark-bitmap bit flips must be detected by the metadata
 *    auditors.
 *
 * Determinism: every fault draw derives from --fault-seed inside one
 * single-threaded replay, so the whole report is byte-identical at
 * any --jobs.  Exits non-zero if any fault fails to degrade
 * gracefully or any corruption goes undetected.
 *
 *   chaos --smoke               # pinned CI grid
 *   chaos --fault unit-stall:rate=0.5:stall-ns=800
 */

#include "bench_common.hh"

#include <cstdio>

#include "fault/fault.hh"
#include "fault/inject.hh"
#include "gc/verify.hh"
#include "sim/logging.hh"
#include "workload/mutator.hh"

using namespace charon;
using namespace charon::bench;

namespace
{

struct GridEntry
{
    const char *label; ///< row label (severity spelled out)
    const char *spec;  ///< parseFaultSpec() text
    bool smoke;        ///< part of the pinned --smoke grid
};

/**
 * The default degradation sweep: each timing-fault kind at escalating
 * severity.  The --smoke subset pins one row per kind so the CI job
 * stays cheap while still crossing every injection site.
 */
const GridEntry kGrid[] = {
    {"unit-stall 10%", "unit-stall:rate=0.1:stall-ns=500", false},
    {"unit-stall 50%", "unit-stall:rate=0.5:stall-ns=500", true},
    {"unit-stall 100%", "unit-stall:rate=1:stall-ns=500", false},
    {"unit-death cube0", "unit-death:cube=0", true},
    {"unit-death all", "unit-death", false},
    {"tlb-poison 10%", "tlb-poison:rate=0.1", false},
    {"tlb-poison 50%", "tlb-poison:rate=0.5", true},
    {"link-degrade 50%", "link-degrade:cube=0:factor=0.5", false},
    {"link-degrade 90%", "link-degrade:cube=0:factor=0.1", true},
    {"tsv-degrade 50%", "tsv-degrade:cube=0:factor=0.5", false},
    {"tsv-degrade 90%", "tsv-degrade:cube=0:factor=0.1", true},
    {"cube-offline", "cube-offline:cube=0", true},
};

} // namespace

int
main(int argc, char **argv)
{
    harness::Options opt;
    opt.helpHeader =
        "chaos: sweep injected faults and report the Charon speedup "
        "retained\nplus functional recovery checks (see EXPERIMENTS.md)";

    std::string workload = "KM";
    std::uint64_t faultSeed = 1;
    bool smoke = false;
    std::vector<std::string> faultSpecs;
    opt.flag("--workload", &workload,
             "workload the faults are injected into\n(default KM)");
    opt.flag("--fault-seed", &faultSeed,
             "seed of all stochastic fault draws\n(default 1)");
    opt.flag("--smoke", &smoke,
             "pinned one-row-per-kind grid (CI)");
    opt.flag(
        "--fault",
        [&faultSpecs](const std::string &v) {
            faultSpecs.push_back(v);
            return true;
        },
        "sweep this fault spec instead of the\nbuilt-in grid "
        "(repeatable)",
        "KIND[:KEY=V]...");
    if (!harness::parseOptions(argc, argv, opt))
        return 2;

    struct Row
    {
        std::string label;
        fault::FaultPlan plan;
    };
    std::vector<Row> rows;
    auto addRow = [&](std::string label,
                      const std::string &text) -> bool {
        fault::FaultSpec spec;
        std::string error;
        if (!fault::parseFaultSpec(text, spec, &error)) {
            std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
            return false;
        }
        fault::FaultPlan plan;
        plan.seed = faultSeed;
        plan.specs.push_back(spec);
        rows.push_back({std::move(label), std::move(plan)});
        return true;
    };
    if (!faultSpecs.empty()) {
        for (const auto &text : faultSpecs)
            if (!addRow(text, text))
                return 2;
    } else {
        for (const auto &g : kGrid) {
            if (smoke && !g.smoke)
                continue;
            if (!addRow(g.label, g.spec))
                return 2;
        }
    }

    ExperimentRunner runner(opt.runnerConfig());
    Report report(opt);

    // One functional trace; cells: [0] DDR4 baseline, [1] clean
    // Charon, then one faulted Charon per row.
    std::vector<Cell> cells;
    cells.push_back(cell(workload, sim::PlatformKind::HostDdr4));
    cells.push_back(cell(workload, sim::PlatformKind::CharonNmp));
    for (const auto &row : rows) {
        Cell c = cell(workload, sim::PlatformKind::CharonNmp);
        c.faults = row.plan;
        c.label = row.label + " on Charon";
        cells.push_back(std::move(c));
    }
    auto results = runner.run(cells);

    auto &table = report.table(
        "chaos",
        "Chaos: Charon speedup retained under injected faults "
        "(workload " + workload + ", fault seed "
            + std::to_string(faultSeed) + ")",
        {"fault", "DDR4 gc(s)", "faulted gc(s)", "clean speedup",
         "faulted speedup", "retained"});

    if (report.checkCell(cells[0], results[0])
        && report.checkCell(cells[1], results[1])) {
        double base = results[0].timing.gcSeconds;
        double clean = results[1].timing.gcSeconds;
        double cleanSpeedup = clean > 0 ? base / clean : 0;
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const auto &cell_i = cells[2 + i];
            const auto &res_i = results[2 + i];
            if (!report.checkCell(cell_i, res_i))
                continue;
            double faulted = res_i.timing.gcSeconds;
            double faultedSpeedup = faulted > 0 ? base / faulted : 0;
            table.addRow({rows[i].label, report::num(base, 4),
                          report::num(faulted, 4),
                          report::times(cleanSpeedup),
                          report::times(faultedSpeedup),
                          report::percent(faultedSpeedup,
                                          cleanSpeedup)});
        }
        table.note("\nretained = faulted speedup / clean speedup; "
                   "every fault must finish the replay (degrade, "
                   "never wedge)");
    }

    // ---- functional faults: recovery and detection ---------------
    auto &rec = report.table(
        "chaos-recovery",
        "Chaos: functional fault recovery (verifier-audited)",
        {"fault", "outcome"});
    const auto &params = workload::findWorkload(workload);
    auto fail = [&](const std::string &label, std::string why) {
        harness::CellResult r;
        r.error = std::move(why);
        report.cellFailed(label, r); // non-OOM: exit goes non-zero
        rec.addRow({label, "FAILED"});
    };

    // The clean functional run all recovery rows compare against.
    workload::Mutator cleanRun(params, params.heapBytes, /*seed=*/1);
    auto cleanResult = cleanRun.run();
    auto &cleanHeap = cleanRun.generationalHeap();
    gc::checkHeapIntegrity(cleanHeap);
    auto cleanFp = gc::fingerprintGraph(cleanHeap);
    if (cleanResult.oom)
        sim::fatal("chaos: clean %s run OOMed — grid is miscalibrated",
                   workload.c_str());

    { // GC-internal allocation failure mid-collection: the scavenger
      // must finish degraded (promotion failure) and the policy must
      // escalate to a full collection that reclaims the heap.
        workload::Mutator m(params, params.heapBytes, /*seed=*/1);
        m.generationalHeap().setGcAllocFault(/*after=*/32, /*count=*/4);
        auto r = m.run();
        gc::checkHeapIntegrity(m.generationalHeap());
        auto cards = gc::verifyCardTable(m.generationalHeap());
        if (r.oom)
            fail("alloc-fail", "faulted run OOMed");
        else if (!cards.ok())
            fail("alloc-fail", "card table corrupt: " + cards.str());
        else
            rec.addRow(
                {"alloc-fail",
                 sim::format("recovered: %llu minor + %llu major "
                             "GCs (clean run: %llu + %llu), heap "
                             "verifier clean",
                             (unsigned long long)r.minorGcs,
                             (unsigned long long)r.majorGcs,
                             (unsigned long long)cleanResult.minorGcs,
                             (unsigned long long)cleanResult.majorGcs)});
    }

    { // Recorder failover: after the trip every recorded bucket is
      // host-only, and the heap the degraded trace came from is
      // byte-for-byte the clean run's graph.
        workload::Mutator m(params, params.heapBytes, /*seed=*/1);
        m.recorder().armFailover(/*after=*/64);
        auto r = m.run();
        gc::checkHeapIntegrity(m.generationalHeap());
        auto fp = gc::fingerprintGraph(m.heap());
        if (r.oom)
            fail("charon-failover", "faulted run OOMed");
        else if (!m.recorder().failoverTripped())
            fail("charon-failover", "failover never tripped");
        else if (!(fp == cleanFp))
            fail("charon-failover",
                 "host-only fingerprint differs from clean run");
        else
            rec.addRow({"charon-failover",
                        sim::format("host-only fallback tripped; "
                                    "fingerprint matches clean run "
                                    "(%llu objects)",
                                    (unsigned long long)fp.objects)});
    }

    { // Seeded card-table corruption must be detected.
        fault::FaultPlan plan;
        plan.seed = faultSeed;
        fault::FaultSpec spec;
        spec.kind = fault::FaultKind::CardFlip;
        spec.count = 8;
        plan.specs.push_back(spec);
        auto flips = fault::applyHeapFaults(cleanHeap, plan);
        auto audit = gc::verifyCardTable(cleanHeap);
        if (audit.ok())
            fail("card-flip",
                 sim::format("%llu flips went undetected",
                             (unsigned long long)flips));
        else
            rec.addRow(
                {"card-flip",
                 sim::format("detected: %llu corrupt entries from "
                             "%llu flips",
                             (unsigned long long)audit.corrupt,
                             (unsigned long long)flips)});
    }

    { // Seeded mark-bitmap corruption must be detected.
        gc::populateMarkBitmaps(cleanHeap);
        auto before = gc::verifyMarkBitmaps(cleanHeap);
        fault::FaultPlan plan;
        plan.seed = faultSeed;
        fault::FaultSpec spec;
        spec.kind = fault::FaultKind::MarkBitmapFlip;
        spec.count = 8;
        plan.specs.push_back(spec);
        auto flips = fault::applyHeapFaults(cleanHeap, plan);
        auto audit = gc::verifyMarkBitmaps(cleanHeap);
        if (!before.ok())
            fail("mark-bitmap-flip",
                 "bitmaps corrupt before injection: " + before.str());
        else if (audit.ok())
            fail("mark-bitmap-flip",
                 sim::format("%llu flips went undetected",
                             (unsigned long long)flips));
        else
            rec.addRow(
                {"mark-bitmap-flip",
                 sim::format("detected: %llu corrupt entries from "
                             "%llu flips",
                             (unsigned long long)audit.corrupt,
                             (unsigned long long)flips)});
    }

    harness::finishTimeline(runner, opt);
    return report.finish(std::cout);
}
