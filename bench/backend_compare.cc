/**
 * @file
 * Four-way offload-backend comparison (the "Trash Talk" study for
 * this codebase): the same GC primitive traces replayed on the DDR4
 * host baseline, an integrated-GPU offload engine, the near-memory
 * Charon design, and a CXL memory-side accelerator — across all four
 * collector families behind gc::CollectorIface.
 *
 * Every backend sees the identical trace (backends are replay-side
 * only; they never enter the trace-cache key), so the tables isolate
 * *where the compute sits relative to memory*:
 *
 *  - iGPU shares the host LLC and DDR4 controller.  It reproduces the
 *    no-win result: kernel-launch latency plus a worse per-kernel MLP
 *    than the host's own MSHRs erase the extra ALUs (geomean <= ~1x).
 *  - Charon sits behind the HMC TSVs and keeps its ~4x-class win.
 *  - The CXL device reaches raw DRAM like Charon, but pays the
 *    CXL.mem round trip per invocation, device-side translation
 *    walks, and back-invalidation snoops — and its *host* path is
 *    taxed by the link too.
 *
 * --smoke pins a single-workload grid for the CI job.
 */

#include <map>

#include "bench_common.hh"

#include "sim/stats.hh"

using namespace charon;
using namespace charon::bench;

namespace
{

constexpr const auto &kFamilies = gc::kCollectorModels;
constexpr int kNumFamilies = static_cast<int>(std::size(kFamilies));

// Baseline first: speedups below divide by the grid row at offset 0.
constexpr sim::PlatformKind kPlatforms[] = {
    sim::PlatformKind::HostDdr4,
    sim::PlatformKind::IgpuOffload,
    sim::PlatformKind::CharonNmp,
    sim::PlatformKind::CxlMsa,
};
constexpr int kNumPlatforms = 4;

} // namespace

int
main(int argc, char **argv)
{
    harness::Options opt;
    opt.helpHeader =
        "backend_compare: replay every collector family's traces on "
        "the DDR4\nhost, an iGPU offload, near-memory Charon, and a "
        "CXL memory-side\naccelerator; report per-family speedups "
        "over the host baseline";
    bool smoke = false;
    opt.flag("--smoke", &smoke,
             "single-workload pinned grid (CI)");
    if (!harness::parseOptions(argc, argv, opt))
        return 2;

    ExperimentRunner runner(opt.runnerConfig());
    Report report(opt);

    const std::vector<std::string> workloads =
        smoke ? std::vector<std::string>{"KM"} : allWorkloads();

    // Grid: workload x collector x platform, platform fastest so one
    // functional run feeds all four replays, with the family headroom
    // collector_zoo uses (harness::familyHeapBytes).
    const std::vector<Cell> cells =
        harness::familyCells(workloads, kPlatforms);
    auto results = runner.run(cells);

    // speedup[family][backend][workload]; backend 0 is the baseline
    // and always 1.00x when the row is healthy.
    std::map<std::string, std::string>
        speedupCell[kNumFamilies][kNumPlatforms];
    std::vector<double> speedups[kNumFamilies][kNumPlatforms];

    std::size_t i = 0;
    for (const auto &name : workloads) {
        for (int f = 0; f < kNumFamilies; ++f, i += kNumPlatforms) {
            bool ok = true;
            for (int p = 0; p < kNumPlatforms; ++p)
                ok &= report.checkCell(cells[i + p], results[i + p]);
            if (!ok) {
                for (int p = 0; p < kNumPlatforms; ++p)
                    speedupCell[f][p][name] =
                        results[i + p].oom ? "OOM" : "-";
                continue;
            }
            const double base = results[i].timing.gcSeconds;
            for (int p = 0; p < kNumPlatforms; ++p) {
                double s = base / results[i + p].timing.gcSeconds;
                speedups[f][p].push_back(s);
                speedupCell[f][p][name] = report::times(s);
            }
        }
    }

    // ------------------------------------------------------------------
    // One four-way table per collector family.
    for (int f = 0; f < kNumFamilies; ++f) {
        const std::string tok =
            gc::collectorToken(kFamilies[f]);
        std::vector<std::string> cols = {"workload"};
        for (auto platform : kPlatforms)
            cols.push_back(sim::platformName(platform));
        auto &table = report.table(
            "backend_speedup_" + tok,
            std::string(gc::collectorTitle(kFamilies[f]))
                + ": GC speedup per backend over the host + DDR4 "
                  "baseline",
            cols);
        for (const auto &name : workloads) {
            std::vector<std::string> row = {name};
            for (int p = 0; p < kNumPlatforms; ++p) {
                auto it = speedupCell[f][p].find(name);
                row.push_back(it == speedupCell[f][p].end()
                                  ? "-"
                                  : it->second);
            }
            table.addRow(row);
        }
        std::vector<std::string> geo = {"geomean"};
        for (int p = 0; p < kNumPlatforms; ++p) {
            geo.push_back(
                speedups[f][p].empty()
                    ? "-"
                    : report::times(sim::geomean(speedups[f][p])));
        }
        table.addRow(geo);
    }

    // ------------------------------------------------------------------
    // Cross-family geomean summary: the headline four-way.
    {
        std::vector<std::string> cols = {"collector"};
        for (auto platform : kPlatforms)
            cols.push_back(sim::platformName(platform));
        auto &table = report.table(
            "backend_geomean",
            "Geomean GC speedup per backend and collector family "
            "(iGPU reproduces the no-win result; only near-memory "
            "placement pays)",
            cols);
        for (int f = 0; f < kNumFamilies; ++f) {
            std::vector<std::string> row = {
                gc::collectorToken(kFamilies[f])};
            for (int p = 0; p < kNumPlatforms; ++p) {
                row.push_back(
                    speedups[f][p].empty()
                        ? "-"
                        : report::times(sim::geomean(speedups[f][p])));
            }
            table.addRow(row);
        }
    }

    report.addRollups(cells, results);
    harness::finishTimeline(runner, opt);
    return report.finish(std::cout);
}
