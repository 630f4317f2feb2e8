/**
 * @file
 * The collector zoo: Table 1 *computed*, not transcribed.
 *
 * Every collector family behind gc::CollectorIface — ParallelScavenge,
 * G1, CMS-style mark-sweep, and the RC/ZCT collector — runs the same
 * workloads through the harness, and this bench derives three tables
 * from the results:
 *
 *  1. table1_computed: primitive x collector applicability, from the
 *     declared CapabilitySet (stamped into every trace) diffed
 *     against the primitives the trace actually contains.
 *  2. zoo_speedup: end-to-end Charon GC speedup per collector, each
 *     over its own host + DDR4 baseline.
 *  3. zoo_primitives: where the speedup comes from — per-primitive
 *     time on the host baseline vs Charon, highlighting the newly
 *     offloadable work (G1 evacuation Copy, CMS sweep Bit Sweep,
 *     RC/ZCT Ref Count).
 *
 * --smoke pins a single-workload grid for the CI job.
 */

#include <map>

#include "bench_common.hh"

#include "gc/capability.hh"
#include "sim/stats.hh"

using namespace charon;
using namespace charon::bench;
using gc::PrimKind;

namespace
{

constexpr const auto &kZoo = gc::kCollectorModels;
constexpr int kNumZoo = static_cast<int>(std::size(kZoo));

constexpr sim::PlatformKind kPlatforms[] = {sim::PlatformKind::HostDdr4,
                                            sim::PlatformKind::CharonNmp};

/** Per-collector capability evidence accumulated across workloads. */
struct Evidence
{
    std::uint32_t declared = 0; ///< union of trace capabilityMasks
    std::uint32_t observed = 0; ///< primitives with invocations > 0
    bool any = false;
};

void
accumulate(Evidence &e, const gc::RunTrace &trace)
{
    for (const auto &g : trace.gcs) {
        e.declared |= g.capabilityMask;
        for (int k = 0; k < gc::kNumPrimKinds; ++k) {
            if (g.totalInvocations(static_cast<PrimKind>(k)) > 0)
                e.observed |= gc::primBit(static_cast<PrimKind>(k));
        }
        e.any = true;
    }
}

/**
 * One applicability cell: "yes" = used and offloadable, "host" =
 * used but pinned to the host (not declared), "cap" = declared but
 * unused on this grid, "-" = neither.
 */
const char *
applicability(const Evidence &e, PrimKind kind)
{
    const bool decl = (e.declared & gc::primBit(kind)) != 0;
    const bool obs = (e.observed & gc::primBit(kind)) != 0;
    if (decl && obs)
        return "yes";
    if (!decl && obs)
        return "host";
    if (decl && !obs)
        return "cap";
    return "-";
}

double
primSeconds(const platform::RunTiming &t, PrimKind kind)
{
    auto pick = [&](const platform::PrimBreakdown &b) {
        switch (kind) {
          case PrimKind::Copy:        return b.copy;
          case PrimKind::Search:      return b.search;
          case PrimKind::ScanPush:    return b.scanPush;
          case PrimKind::BitmapCount: return b.bitmapCount;
          case PrimKind::BitSweep:    return b.bitSweep;
          case PrimKind::RefCount:    return b.refCount;
        }
        return 0.0;
    };
    return pick(t.minorBreakdown) + pick(t.majorBreakdown);
}

} // namespace

int
main(int argc, char **argv)
{
    harness::Options opt;
    opt.helpHeader =
        "collector_zoo: run every CollectorIface family on the same "
        "workloads\nand compute Table 1 (applicability + measured "
        "speedup) from the traces";
    bool smoke = false;
    opt.flag("--smoke", &smoke,
             "single-workload pinned grid (CI)");
    if (!harness::parseOptions(argc, argv, opt))
        return 2;

    ExperimentRunner runner(opt.runnerConfig());
    Report report(opt);

    const std::vector<std::string> workloads =
        smoke ? std::vector<std::string>{"KM"} : allWorkloads();

    // Grid: workload x collector x {DDR4, Charon}, with the family
    // headroom of harness::familyHeapBytes.
    const std::vector<Cell> cells =
        harness::familyCells(workloads, kPlatforms);
    auto results = runner.run(cells);

    // ------------------------------------------------------------------
    // Evidence + speedups, indexed the way the grid was laid out.
    Evidence evidence[kNumZoo];
    std::map<std::string, std::string> speedupCell[kNumZoo];
    std::vector<double> speedups[kNumZoo];
    double primHost[kNumZoo][gc::kNumPrimKinds] = {};
    double primCharon[kNumZoo][gc::kNumPrimKinds] = {};

    std::size_t i = 0;
    for (const auto &name : workloads) {
        for (int z = 0; z < kNumZoo; ++z, i += 2) {
            bool ok = report.checkCell(cells[i], results[i])
                      & report.checkCell(cells[i + 1], results[i + 1]);
            if (!ok) {
                speedupCell[z][name] = results[i].oom
                                               || results[i + 1].oom
                                           ? "OOM"
                                           : "-";
                continue;
            }
            accumulate(evidence[z], results[i].run->trace);
            double speedup = results[i].timing.gcSeconds
                             / results[i + 1].timing.gcSeconds;
            speedups[z].push_back(speedup);
            speedupCell[z][name] = report::times(speedup);
            for (int k = 0; k < gc::kNumPrimKinds; ++k) {
                auto kind = static_cast<PrimKind>(k);
                primHost[z][k] += primSeconds(results[i].timing, kind);
                primCharon[z][k] +=
                    primSeconds(results[i + 1].timing, kind);
            }
        }
    }

    // ------------------------------------------------------------------
    // Table 1, computed: primitive x collector.
    {
        std::vector<std::string> cols = {"primitive"};
        for (CollectorModel kind : kZoo)
            cols.push_back(gc::collectorTitle(kind));
        auto &table = report.table(
            "table1_computed",
            "Computed Table 1: primitive applicability per collector "
            "(yes = used+offloadable, host = used but host-pinned, "
            "cap = declared, unused here)",
            cols);
        for (int k = 0; k < gc::kNumPrimKinds; ++k) {
            auto kind = static_cast<PrimKind>(k);
            std::vector<std::string> row = {gc::primKindName(kind)};
            for (int z = 0; z < kNumZoo; ++z)
                row.push_back(applicability(evidence[z], kind));
            table.addRow(row);
        }
        table.note("\nDerived from the capability masks stamped into "
                   "the traces, diffed\nagainst the primitives each "
                   "trace actually contains");
    }

    // ------------------------------------------------------------------
    // End-to-end speedups.
    {
        std::vector<std::string> cols = {"workload"};
        for (CollectorModel kind : kZoo) {
            cols.push_back(std::string(gc::collectorToken(kind))
                           + " speedup");
        }
        auto &table = report.table(
            "zoo_speedup",
            "Charon GC speedup per collector (each over its own "
            "host + DDR4 baseline)",
            cols);
        for (const auto &name : workloads) {
            std::vector<std::string> row = {name};
            for (int z = 0; z < kNumZoo; ++z) {
                auto it = speedupCell[z].find(name);
                row.push_back(it == speedupCell[z].end() ? "-"
                                                         : it->second);
            }
            table.addRow(row);
        }
        std::vector<std::string> geo = {"geomean"};
        for (int z = 0; z < kNumZoo; ++z) {
            geo.push_back(speedups[z].empty()
                              ? "-"
                              : report::times(sim::geomean(speedups[z])));
        }
        table.addRow(geo);
    }

    // ------------------------------------------------------------------
    // Per-primitive time: where each collector's win comes from.
    {
        auto &table = report.table(
            "zoo_primitives",
            "Per-primitive GC time across the grid, host baseline vs "
            "Charon (the newly offloadable work: G1 evacuation Copy, "
            "CMS Bit Sweep, RC Ref Count)",
            {"collector", "primitive", "host s", "charon s",
             "speedup"});
        for (int z = 0; z < kNumZoo; ++z) {
            for (int k = 0; k < gc::kNumPrimKinds; ++k) {
                if (primHost[z][k] <= 0 && primCharon[z][k] <= 0)
                    continue;
                auto kind = static_cast<PrimKind>(k);
                std::string speedup = "-";
                if (primCharon[z][k] > 0) {
                    speedup = report::times(primHost[z][k]
                                            / primCharon[z][k]);
                }
                table.addRow({gc::collectorToken(kZoo[z]),
                              gc::primKindName(kind),
                              report::num(primHost[z][k], 4),
                              report::num(primCharon[z][k], 4),
                              speedup});
            }
        }
    }

    report.addRollups(cells, results);
    harness::finishTimeline(runner, opt);
    return report.finish(std::cout);
}
