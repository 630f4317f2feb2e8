#include "explorer.hh"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "accel/backend.hh"

namespace charon::dse
{

JournalRecord
toRecord(std::string key, const harness::CellResult &result)
{
    JournalRecord rec;
    rec.key = std::move(key);
    rec.ok = result.ok;
    rec.oom = result.oom;
    rec.error = result.error;
    if (result.ok) {
        const auto &t = result.timing;
        rec.gcSeconds = t.gcSeconds;
        rec.minorSeconds = t.minorSeconds;
        rec.majorSeconds = t.majorSeconds;
        rec.mutatorSeconds = t.mutatorSeconds;
        rec.avgGcBandwidthGBs = t.avgGcBandwidthGBs;
        rec.localAccessFraction = t.localAccessFraction;
        rec.dramBytes = t.dramBytes;
        rec.hostEnergyJ = t.hostEnergyJ;
        rec.dramEnergyJ = t.dramEnergyJ;
        rec.unitEnergyJ = t.unitEnergyJ;
    }
    return rec;
}

std::string
cellKey(const harness::Cell &cell, int screenGcs)
{
    // Resolve heapBytes=0 to the catalog default so a sweep that
    // spells the heap explicitly and one that relies on the default
    // share journal entries.
    auto key = harness::ExperimentRunner::resolve(cell.key);
    const auto &cfg = cell.config;
    std::ostringstream os;
    os << "c1|" << key.str() << '|' << sim::platformName(cell.platform)
       << "|t" << cfg.gcThreads << "/q" << cfg.hmc.cubes << "/tsv"
       << fmtDouble(cfg.hmc.internalGBsPerCube) << "/link"
       << fmtDouble(cfg.hmc.linkGBs) << "/top"
       << (cfg.hmc.topology == sim::HmcTopology::Star ? "star"
                                                      : "chain")
       << "/cs" << cfg.charon.copySearchUnits << "/bc"
       << cfg.charon.bitmapCountUnits << "/sp"
       << cfg.charon.scanPushUnits << "/mai" << cfg.charon.maiEntries
       << (cfg.charon.distributedStructures ? "/dist" : "/uni")
       << (cfg.charon.scanPushLocal ? "/splocal" : "")
       << (cfg.charon.cpuSide ? "/cpuside" : "") << "|g" << screenGcs;
    return os.str();
}

std::string
canonicalCellKey(const harness::Cell &cell, int screenGcs,
                 const gc::TraceProfile &profile)
{
    auto key = harness::ExperimentRunner::resolve(cell.key);
    const auto &cfg = cell.config;
    // iGPU and CXL replays are DDR4-backed: HMC/Charon knobs are
    // unobservable there and prune away like on the DDR4 baseline.
    const bool hmc =
        cell.platform != sim::PlatformKind::HostDdr4
        && cell.platform != sim::PlatformKind::IgpuOffload
        && cell.platform != sim::PlatformKind::CxlMsa;
    const bool charon = sim::backendFor(cell.platform)
                        == sim::BackendKind::Charon;
    std::ostringstream os;
    // The "i1" version tag keeps canonical records disjoint from
    // every primary ("c1|...") key, so the two families can never
    // collide in one journal.
    os << "i1|" << key.str() << '|' << sim::platformName(cell.platform)
       << "|t" << cfg.gcThreads;
    if (hmc) {
        os << "/q" << cfg.hmc.cubes << "/tsv"
           << fmtDouble(cfg.hmc.internalGBsPerCube) << "/link"
           << fmtDouble(cfg.hmc.linkGBs) << "/top"
           << (cfg.hmc.topology == sim::HmcTopology::Star ? "star"
                                                          : "chain");
    }
    if (charon) {
        os << "/cs" << cfg.charon.copySearchUnits << "/bc"
           << cfg.charon.bitmapCountUnits << "/sp"
           << cfg.charon.scanPushUnits;
        if (profile.anyOffload())
            os << "/mai" << cfg.charon.maiEntries;
        if (profile.offloads(gc::PrimKind::BitmapCount)
            || profile.offloads(gc::PrimKind::ScanPush)
            || profile.offloads(gc::PrimKind::RefCount)) {
            os << (cfg.charon.distributedStructures ? "/dist" : "/uni");
        }
        if (profile.offloads(gc::PrimKind::ScanPush)
            || profile.offloads(gc::PrimKind::RefCount)) {
            os << (cfg.charon.scanPushLocal ? "/splocal" : "/spcentral");
        }
    }
    os << "|g" << screenGcs;
    return os.str();
}

const gc::TraceProfile &
Explorer::profileFor(const harness::FunctionalKey &key)
{
    auto resolved = harness::ExperimentRunner::resolve(key);
    auto it = profiles_.find(resolved.str());
    if (it == profiles_.end()) {
        auto run = runner_.functional(resolved);
        it = profiles_
                 .emplace(resolved.str(), gc::profileTrace(run->trace))
                 .first;
    }
    return it->second;
}

std::vector<JournalRecord>
Explorer::runCells(const std::vector<harness::Cell> &cells,
                   const std::vector<std::string> &keys, int screenGcs)
{
    std::vector<JournalRecord> records(cells.size());
    std::vector<std::size_t> misses;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (journal_.lookup(keys[i], records[i]))
            ++hits_;
        else
            misses.push_back(i);
    }
    if (misses.empty())
        return records;
    // Stop at a batch boundary on Ctrl-C / SIGTERM: everything
    // already simulated is journalled, nothing fresh is started.
    if (SweepJournal::interrupted())
        throw SweepInterrupted();

    // Incremental pass: give every primary miss a second chance under
    // its canonical (pruned) key before simulating anything.  Misses
    // that collide on a canonical key inside this batch are simulated
    // once (the first in submission order) and shared afterwards, so
    // an N-point sweep over pruned knobs costs one replay.  Custom
    // pipelines and fault plans are outside the canonical contract
    // (their keys do not capture everything that shapes the result).
    std::vector<std::string> canon(cells.size());
    std::map<std::string, std::size_t> owners;
    std::vector<std::size_t> simulate;
    std::vector<std::pair<std::size_t, std::size_t>> followers;
    for (std::size_t i : misses) {
        const auto &cell = cells[i];
        if (cell.customRun || cell.faults.enabled()) {
            simulate.push_back(i);
            continue;
        }
        canon[i] = canonicalCellKey(cell, screenGcs,
                                    profileFor(cell.key));
        JournalRecord rec;
        if (journal_.lookup(canon[i], rec)) {
            // Re-home the shared record under the primary key so
            // resumed sweeps hit it without the incremental pass.
            rec.key = keys[i];
            records[i] = rec;
            journal_.append(records[i]);
            ++incrementalHits_;
            continue;
        }
        auto [owner, fresh] = owners.emplace(canon[i], i);
        if (fresh)
            simulate.push_back(i);
        else
            followers.emplace_back(i, owner->second);
    }

    if (!simulate.empty()) {
        std::vector<harness::Cell> missCells;
        missCells.reserve(simulate.size());
        for (std::size_t i : simulate)
            missCells.push_back(cells[i]);
        auto results = runner_.run(missCells);
        for (std::size_t k = 0; k < simulate.size(); ++k) {
            std::size_t i = simulate[k];
            records[i] = toRecord(keys[i], results[k]);
            journal_.append(records[i]);
            if (!canon[i].empty()) {
                JournalRecord crec = records[i];
                crec.key = canon[i];
                journal_.append(crec);
            }
            ++evaluated_;
        }
    }
    for (auto [i, owner] : followers) {
        records[i] = records[owner];
        records[i].key = keys[i];
        journal_.append(records[i]);
        ++incrementalHits_;
    }
    return records;
}

PointCells
pointCells(const std::vector<DsePoint> &points, int screenGcs)
{
    PointCells out;
    out.cells.reserve(points.size() * 2);
    out.keys.reserve(points.size() * 2);
    for (const auto &point : points) {
        auto fk = harness::ExperimentRunner::resolve(
            point.functionalKey());
        auto cfg = point.systemConfig();
        for (auto kind : {sim::PlatformKind::HostDdr4, point.backend}) {
            harness::Cell c;
            c.key = fk;
            c.platform = kind;
            c.config = cfg;
            c.label = point.str() + " on " + sim::platformName(kind);
            if (screenGcs > 0) {
                c.label += " (screen " + std::to_string(screenGcs)
                           + " gcs)";
                c.patchTrace = [screenGcs](gc::RunTrace &trace) {
                    auto cap = static_cast<std::size_t>(screenGcs);
                    if (trace.gcs.size() > cap)
                        trace.gcs.resize(cap);
                    if (trace.mutatorInstructions.size() > cap)
                        trace.mutatorInstructions.resize(cap);
                };
            }
            out.keys.push_back(cellKey(c, screenGcs));
            out.cells.push_back(std::move(c));
        }
    }
    return out;
}

std::vector<PointEval>
Explorer::evaluate(const std::vector<DsePoint> &points, int screenGcs)
{
    auto [cells, keys] = pointCells(points, screenGcs);

    auto records = runCells(cells, keys, screenGcs);

    std::vector<PointEval> evals;
    evals.reserve(points.size());
    for (std::size_t p = 0; p < points.size(); ++p) {
        PointEval e;
        e.point = points[p];
        e.screenGcs = screenGcs;
        e.base = records[p * 2];
        e.charon = records[p * 2 + 1];
        e.ok = e.base.ok && e.charon.ok;
        e.oom = e.base.oom || e.charon.oom;
        e.error = !e.base.error.empty() ? e.base.error : e.charon.error;
        if (e.ok && e.charon.gcSeconds > 0)
            e.speedup = e.base.gcSeconds / e.charon.gcSeconds;
        e.energyJ = e.charon.totalEnergyJ();
        e.areaMm2 = accel::backendAreaMm2(points[p].backend,
                                          points[p].systemConfig());
        evals.push_back(std::move(e));
    }
    return evals;
}

std::vector<PointEval>
successiveHalving(
    Explorer &explorer, std::vector<DsePoint> points, int screenGcs,
    std::size_t finalists,
    const std::function<void(const std::vector<DsePoint> &, int)>
        &preEvaluate)
{
    if (finalists == 0)
        finalists = 1;
    int gcs = screenGcs > 0 ? screenGcs : 1;
    while (points.size() > finalists) {
        if (preEvaluate)
            preEvaluate(points, gcs);
        auto evals = explorer.evaluate(points, gcs);
        std::vector<std::size_t> order(points.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        // Failed points sort last; among the rest the screened
        // speedup decides.  stable_sort keeps enumeration order on
        // ties, so the whole search is deterministic.
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             if (evals[a].ok != evals[b].ok)
                                 return evals[a].ok;
                             return evals[a].speedup
                                    > evals[b].speedup;
                         });
        std::size_t keep =
            std::max(finalists, (points.size() + 1) / 2);
        order.resize(keep);
        // Survivors continue in enumeration order, not rank order:
        // the next round's journal keys must not depend on this
        // round's exact scores more than membership already does.
        std::sort(order.begin(), order.end());
        std::vector<DsePoint> next;
        next.reserve(keep);
        for (std::size_t i : order)
            next.push_back(std::move(points[i]));
        points = std::move(next);
        gcs *= 2;
    }
    if (preEvaluate)
        preEvaluate(points, 0);
    return explorer.evaluate(points, 0);
}

} // namespace charon::dse
