#include "presets.hh"

#include <fstream>
#include <sstream>

#include "report/table.hh"
#include "workload/catalog.hh"

namespace charon::dse
{

namespace
{

constexpr int kFig15Threads[] = {1, 2, 4, 8, 16};
// One Spark-style and one GraphChi-style workload, as the paper plots
// both behaviours.
const char *const kFig15Workloads[] = {"KM", "CC"};

/** Report::checkCell over a journal record: counts ok cells and
 *  files failures exactly as for a harness::CellResult. */
bool
checkRecord(harness::Report &report, const harness::Cell &cell,
            const JournalRecord &rec)
{
    harness::CellResult result;
    result.ok = rec.ok;
    result.oom = rec.oom;
    result.error = rec.error;
    return report.checkCell(cell, result);
}

std::vector<std::string>
cellKeys(const std::vector<harness::Cell> &cells)
{
    std::vector<std::string> keys;
    keys.reserve(cells.size());
    for (const auto &c : cells)
        keys.push_back(cellKey(c, 0));
    return keys;
}

constexpr Figure kFigures[] = {{"fig13", fig13Cells, renderFig13},
                               {"fig15", fig15Cells, renderFig15}};

} // namespace

ParamSpace
smokeSpace()
{
    ParamSpace space;
    space.base.workload = "CC";
    // Twice the calibrated minimum: small enough to be a CI gate,
    // large enough to run a real mix of minor and major collections.
    space.base.heapBytes = workload::findWorkload("CC").minHeapBytes * 2;
    space.axis("units", {"4", "8"});
    space.axis("offload-threshold", {"256", "4096"});
    return space;
}

ParamSpace
frontierSpace()
{
    ParamSpace space;
    space.base.workload = "KM";
    space.axis("units", {"2", "4", "8", "16"});
    // 0 offloads every copy; 1 GiB keeps every copy on the host, so
    // the sweep brackets the paper's 256 B operating point.
    space.axis("offload-threshold",
               {"0", "64", "256", "4096", "1073741824"});
    return space;
}

PointCells
fig13Cells()
{
    const sim::PlatformKind kinds[] = {sim::PlatformKind::HostDdr4,
                                       sim::PlatformKind::HostHmc,
                                       sim::PlatformKind::CharonNmp};
    PointCells out;
    for (const auto &name : harness::allWorkloads())
        for (auto kind : kinds)
            out.cells.push_back(harness::cell(name, kind));
    out.keys = cellKeys(out.cells);
    return out;
}

void
renderFig13(harness::Report &report,
            const std::vector<harness::Cell> &cells,
            const std::vector<JournalRecord> &records)
{
    auto &table = report.table(
        "fig13",
        "Figure 13: bandwidth utilized during GC and "
        "Charon's local-access ratio",
        {"workload", "DDR4 GB/s", "HMC GB/s", "Charon GB/s", "local",
         "remote"});
    for (std::size_t i = 0; i < cells.size(); i += 3) {
        bool ok = true;
        for (std::size_t k = 0; k < 3; ++k)
            ok &= checkRecord(report, cells[i + k], records[i + k]);
        if (!ok)
            continue;
        const auto &ddr4 = records[i];
        const auto &hmc = records[i + 1];
        const auto &charon = records[i + 2];
        table.addRow(
            {cells[i].key.workload, report::num(ddr4.avgGcBandwidthGBs, 1),
             report::num(hmc.avgGcBandwidthGBs, 1),
             report::num(charon.avgGcBandwidthGBs, 1),
             report::num(100 * charon.localAccessFraction, 0) + "%",
             report::num(100 * (1 - charon.localAccessFraction), 0)
                 + "%"});
    }
    table.note("\noff-chip limits: DDR4 34 GB/s, HMC links 80 GB/s; "
               "Charon internal peak 4 x 320 GB/s");
    table.note("paper: >70% local for most workloads; LR and CC "
               "closer to ~50%");
}

PointCells
fig15Cells()
{
    // Every (workload, threads) pair is its own functional key; the
    // three variants replay it.
    PointCells out;
    for (const char *name : kFig15Workloads) {
        for (int threads : kFig15Threads) {
            auto cfg = sim::SystemConfig::threadScaling(threads);

            harness::Cell ddr4 = harness::cell(
                name, sim::PlatformKind::HostDdr4, 0, 1, threads);
            ddr4.config = cfg;
            out.cells.push_back(ddr4);

            harness::Cell uni = harness::cell(
                name, sim::PlatformKind::CharonNmp, 0, 1, threads);
            uni.config = cfg;
            out.cells.push_back(uni);

            harness::Cell dist = uni;
            dist.config.charon.distributedStructures = true;
            dist.label += " (distributed)";
            out.cells.push_back(dist);
        }
    }
    out.keys = cellKeys(out.cells);
    return out;
}

void
renderFig15(harness::Report &report,
            const std::vector<harness::Cell> &cells,
            const std::vector<JournalRecord> &records)
{
    std::size_t i = 0;
    harness::ResultSink *last = nullptr;
    for (const std::string name : kFig15Workloads) {
        auto &table =
            report.table("fig15." + name,
                         "Figure 15 (" + name
                             + "): GC throughput scalability "
                               "(normalized to 1 thread)",
                         {"threads", "DDR4", "Charon unified",
                          "Charon distributed"});
        double base_ddr4 = 0, base_uni = 0, base_dist = 0;
        for (int threads : kFig15Threads) {
            bool ok = true;
            for (std::size_t k = 0; k < 3; ++k)
                ok &= checkRecord(report, cells[i + k], records[i + k]);
            if (ok) {
                double ddr4 = records[i].gcSeconds;
                double uni = records[i + 1].gcSeconds;
                double dist = records[i + 2].gcSeconds;
                if (threads == 1) {
                    base_ddr4 = ddr4;
                    base_uni = uni;
                    base_dist = dist;
                }
                table.addRow({std::to_string(threads),
                              report::times(base_ddr4 / ddr4),
                              report::times(base_uni / uni),
                              report::times(base_dist / dist)});
            }
            i += 3;
        }
        last = &table;
    }
    if (last) {
        last->note("\npaper: DDR4 hardly scales (34 GB/s cap); Charon "
                   "scales with internal bandwidth; distributed "
                   "structures scale best");
    }
}

const Figure *
findFigure(const std::string &name)
{
    for (const auto &figure : kFigures)
        if (name == figure.name)
            return &figure;
    return nullptr;
}

SweepSummary
summarize(const std::vector<PointEval> &evals)
{
    SweepSummary summary;
    // Dominance is computed over the ok points but reported in
    // whole-sweep indices, so callers never juggle two index spaces.
    std::vector<std::size_t> okIdx;
    std::vector<Objectives> objectives;
    for (std::size_t i = 0; i < evals.size(); ++i) {
        if (evals[i].ok) {
            okIdx.push_back(i);
            objectives.push_back(evals[i].objectives());
        }
    }
    if (okIdx.empty())
        return summary;
    auto front = paretoFrontier(objectives);
    for (std::size_t f : front)
        summary.frontier.push_back(okIdx[f]);
    summary.knee = okIdx[kneePoint(objectives, front)];
    summary.valid = true;
    return summary;
}

void
reportSweep(harness::Report &report,
            const std::vector<PointEval> &evals,
            const SweepSummary &summary)
{
    auto onFrontier = [&](std::size_t i) {
        for (std::size_t f : summary.frontier)
            if (f == i)
                return true;
        return false;
    };

    auto &table = report.table(
        "dse", "Design-space sweep: speedup vs. area and energy",
        {"point", "speedup", "GC ms", "energy J", "area mm2",
         "frontier"});
    for (std::size_t i = 0; i < evals.size(); ++i) {
        const auto &e = evals[i];
        harness::Cell pseudo;
        pseudo.label = e.point.str();
        harness::CellResult result;
        result.ok = e.ok;
        result.oom = e.oom;
        result.error = e.error;
        if (!report.checkCell(pseudo, result))
            continue;
        std::string mark;
        if (summary.valid && i == summary.knee)
            mark = "knee";
        else if (onFrontier(i))
            mark = "*";
        table.addRow({e.point.str(), report::times(e.speedup),
                      report::num(e.charon.gcSeconds * 1e3, 2),
                      report::num(e.energyJ, 3),
                      report::num(e.areaMm2, 3), mark});
    }
    if (summary.valid) {
        table.note("\nfrontier: " + std::to_string(
                       summary.frontier.size())
                   + " of " + std::to_string(evals.size())
                   + " points are Pareto-optimal "
                     "(maximize speedup, minimize area and energy)");
        table.note("knee point: " + evals[summary.knee].point.str());
    } else {
        table.note("\nno point evaluated successfully");
    }
}

std::string
paretoCsvText(const std::vector<PointEval> &evals,
              const SweepSummary &summary)
{
    std::ostringstream os;
    os << "point,speedup,gc_ms,energy_j,area_mm2,knee\n";
    for (std::size_t i : summary.frontier) {
        const auto &e = evals[i];
        os << e.point.str() << ',' << fmtDouble(e.speedup) << ','
           << fmtDouble(e.charon.gcSeconds * 1e3) << ','
           << fmtDouble(e.energyJ) << ',' << fmtDouble(e.areaMm2)
           << ',' << (summary.valid && i == summary.knee ? 1 : 0)
           << '\n';
    }
    return os.str();
}

bool
writeParetoCsv(const std::string &path,
               const std::vector<PointEval> &evals,
               const SweepSummary &summary, std::string *error)
{
    std::ofstream os(path, std::ios::binary);
    if (!os) {
        if (error)
            *error = "cannot open " + path + " for writing";
        return false;
    }
    os << paretoCsvText(evals, summary);
    os.flush();
    if (!os) {
        if (error)
            *error = "write to " + path + " failed";
        return false;
    }
    return true;
}

} // namespace charon::dse
