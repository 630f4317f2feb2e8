/**
 * @file
 * charon-explore: design-space exploration over the Charon
 * configuration space.
 *
 * Declares a parameter space (a preset or ad-hoc --axis flags), walks
 * it with one of three search strategies — exhaustive grid, seeded
 * random sampling, or adaptive successive halving — through the
 * experiment harness, journals every evaluated cell to a JSONL file
 * so interrupted sweeps resume without recomputation, and reports the
 * Pareto frontier of GC speedup against unit area and GC energy.
 *
 *   charon-explore --preset fig13            # Figure 13, journalled
 *   charon-explore --preset frontier --search halving
 *   charon-explore --axis units=2,4,8 --axis tsv-gbs=160,320,640
 *   charon-explore --preset smoke --pareto-csv pareto.csv
 *   charon-explore --preset fig13 --shards 4 # supervised fan-out
 *
 * Determinism: results are bit-identical at any --jobs, whether cells
 * come from the journal, the trace cache, or fresh simulation — and,
 * with --shards, at any shard count: the supervised sweep commits
 * into per-shard journals that merge back into the canonical file.
 *
 * Exit codes: 0 clean; 1 failure; 2 usage; 3 sweep completed but one
 * or more poison points were quarantined (see stderr for their keys);
 * 130 interrupted by SIGINT/SIGTERM with the journal resumable.
 */

#include <cstdio>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "dse/explorer.hh"
#include "dse/journal.hh"
#include "dse/param_space.hh"
#include "dse/presets.hh"
#include "dse/supervisor.hh"
#include "harness/options.hh"
#include "harness/result_sink.hh"

using namespace charon;

namespace
{

/** Thrown out of the halving pre-evaluate hook to carry an exit. */
struct ShardExit
{
    int code;
};

} // namespace

int
main(int argc, char **argv)
{
    harness::Options opt;
    opt.helpHeader =
        "charon-explore: sweep the Charon design space and report "
        "the\nspeedup/area/energy Pareto frontier (see EXPERIMENTS.md)";

    std::string preset;
    std::vector<std::string> axisSpecs;
    std::string workload;
    std::string backend;
    std::uint64_t heapMib = 0;
    std::string search = "grid";
    int samples = 16;
    std::uint64_t searchSeed = 7;
    int screenGcs = 4;
    int finalists = 4;
    std::string journalPath;
    bool noJournal = false;
    std::string paretoCsv;
    bool listAxes = false;
    int shards = 0;
    int shardRetries = 2;
    double shardTimeout = 120;
    double drainSec = 5;
    bool mergeShards = false;

    opt.flag("--preset", &preset,
             "canned sweep: fig13 | fig15 | frontier |\nsmoke");
    opt.flag(
        "--axis",
        [&axisSpecs](const std::string &v) {
            axisSpecs.push_back(v);
            return true;
        },
        "add a sweep axis (repeatable); names\nwith --list-axes",
        "NAME=V1,V2,...");
    opt.flag("--workload", &workload,
             "base workload of the sweep (default KM)");
    opt.flag("--heap-mib", &heapMib,
             "base max heap in MiB (0 = catalog\ndefault)");
    opt.flag("--backend", &backend,
             "base offload backend: nmp | igpu |\ncxl | host "
             "(default nmp)");
    opt.flag("--search", &search,
             "grid | random | halving (default grid)");
    opt.flag("--samples", &samples,
             "random search: points to sample\n(default 16)");
    opt.flag("--search-seed", &searchSeed,
             "random search: sampling seed (default 7)");
    opt.flag("--screen-gcs", &screenGcs,
             "halving: collections replayed per\nscreen (default 4)");
    opt.flag("--finalists", &finalists,
             "halving: survivors promoted to full\nruns (default 4)");
    opt.flag("--journal", &journalPath,
             "cell journal path (default\n<preset|sweep>.dse.jsonl)");
    opt.flag("--no-journal", &noJournal,
             "do not read or write a journal");
    opt.flag("--pareto-csv", &paretoCsv,
             "write the Pareto frontier as CSV here");
    opt.flag("--list-axes", &listAxes,
             "list the sweepable axes and exit");
    opt.flag("--shards", &shards,
             "supervised worker processes (0 =\nin-process sweep)");
    opt.flag("--shard-retries", &shardRetries,
             "restarts per shard before degrading\n(default 2)");
    opt.flag("--shard-timeout", &shardTimeout,
             "per-shard progress watchdog in\nseconds, 0 disables "
             "(default 120)");
    opt.flag("--drain-sec", &drainSec,
             "drain window after SIGINT before\nworkers are killed "
             "(default 5)");
    opt.flag("--merge-shards", &mergeShards,
             "merge shard journals into the\ncanonical journal "
             "(also canonicalizes it) and exit");
    if (!harness::parseOptions(argc, argv, opt))
        return 2;

    if (listAxes) {
        std::printf("sweepable axes (--axis NAME=V1,V2,...):\n");
        for (const auto &[name, help] : dse::ParamSpace::axisHelp())
            std::printf("  %-22s %s\n", name.c_str(), help.c_str());
        return 0;
    }

    auto usageError = [&](const std::string &msg) {
        std::fprintf(stderr, "%s: %s\n", argv[0], msg.c_str());
        return 2;
    };
    if (search != "grid" && search != "random" && search != "halving")
        return usageError("unknown --search '" + search
                          + "' (grid | random | halving)");
    const dse::Figure *figure = dse::findFigure(preset);
    if (!preset.empty() && !figure && preset != "frontier"
        && preset != "smoke")
        return usageError("unknown --preset '" + preset
                          + "' (fig13 | fig15 | frontier | smoke)");

    if (journalPath.empty())
        journalPath =
            (preset.empty() ? std::string("sweep") : preset)
            + ".dse.jsonl";
    if (mergeShards) {
        auto absorbed = dse::absorbShardJournals(journalPath);
        if (!absorbed.ok) {
            std::fprintf(stderr, "dse: %s\n", absorbed.error.c_str());
            return 1;
        }
        const auto &st = absorbed.merge;
        std::fprintf(stderr,
                     "dse: merged %zu source(s) into %s: %zu "
                     "records, %zu duplicates, %zu torn line(s)\n",
                     st.sources, journalPath.c_str(), st.records,
                     st.duplicates, st.tornLines);
        return 0;
    }
    if (shards > 0 && noJournal)
        return usageError(
            "--shards needs a journal to commit into; drop "
            "--no-journal");
    dse::SweepJournal journal(noJournal ? std::string()
                                        : journalPath);

    harness::ExperimentRunner runner(opt.runnerConfig());
    dse::Explorer explorer(runner, journal);
    harness::Report report(opt);

    // Ctrl-C / SIGTERM stop the sweep at a batch boundary with every
    // completed cell journalled; rerunning the same command resumes.
    dse::SweepJournal::installSignalFlush();

    // Supervised fan-out: farm the cells out to worker shards that
    // commit into per-shard journals, merge those into the canonical
    // journal, then let the in-process render path below run as pure
    // journal hits — so every table and CSV is byte-identical to an
    // unsharded run.  Returns -1 to continue, else an exit code.
    bool anyQuarantined = false;
    auto shardPrerun = [&](const dse::PointCells &pc,
                           const std::vector<std::vector<std::size_t>>
                               &units,
                           int gcs) -> int {
        dse::SupervisorConfig scfg;
        scfg.shards = shards;
        scfg.restartsPerShard = shardRetries;
        scfg.progressTimeoutSec = shardTimeout;
        scfg.drainSec = drainSec;
        scfg.journalPath = journalPath;
        scfg.runner = opt.runnerConfig();
        scfg.screenGcs = gcs;
        auto res = dse::runShardedSweep(pc.cells, pc.keys, units,
                                        scfg);
        for (const auto &key : res.quarantinedKeys)
            std::fprintf(stderr, "dse: quarantined poison point %s\n",
                         key.c_str());
        // Quarantined units become session-local failure records —
        // memory only, never journalled — so the render pass reports
        // them without re-running them, and a later resume retries.
        for (std::size_t u : res.quarantined) {
            for (std::size_t i : units[u]) {
                dse::JournalRecord rec;
                rec.key = pc.keys[i];
                rec.ok = false;
                rec.error = "quarantined poison point (killed a "
                            "worker twice)";
                journal.seedRecord(rec);
            }
        }
        // Pull the merged shard results into this process's journal
        // memory; committed cells then hit without re-simulation.
        journal.seedFrom(journalPath);
        if (res.interrupted) {
            std::fprintf(stderr,
                         "dse: interrupted; completed cells are in "
                         "%s — re-run the same command to resume\n",
                         journalPath.c_str());
            return 130;
        }
        if (!res.ok) {
            std::fprintf(stderr, "dse: sharded sweep failed: %s\n",
                         res.error.c_str());
            return 1;
        }
        std::fprintf(stderr,
                     "dse: shards: %zu units (%zu precommitted, %zu "
                     "committed), %zu restarts, %zu crashes, %zu "
                     "re-evaluated cells, %zu quarantined\n",
                     res.unitsTotal, res.unitsPrecommitted,
                     res.unitsCommitted, res.restarts,
                     res.workerCrashes, res.reEvaluatedCells,
                     res.quarantined.size());
        if (!res.quarantined.empty())
            anyQuarantined = true;
        return -1;
    };
    // One unit per design point (its two cells live or die together);
    // preset cells are independent, so one unit per cell.
    auto pointUnits = [](std::size_t npoints) {
        std::vector<std::vector<std::size_t>> units(npoints);
        for (std::size_t p = 0; p < npoints; ++p)
            units[p] = {p * 2, p * 2 + 1};
        return units;
    };
    auto cellUnits = [](std::size_t ncells) {
        std::vector<std::vector<std::size_t>> units(ncells);
        for (std::size_t c = 0; c < ncells; ++c)
            units[c] = {c};
        return units;
    };

    try {
        if (figure) {
            // The bench binary's cells and render (CI diffs the
            // outputs), with the journal underneath.
            auto pc = figure->cells();
            if (shards > 0) {
                int rc = shardPrerun(pc, cellUnits(pc.cells.size()),
                                     0);
                if (rc >= 0)
                    return rc;
            }
            figure->render(report, pc.cells,
                           explorer.runCells(pc.cells, pc.keys));
        } else {
            dse::ParamSpace space;
            std::string error;
            if (preset == "frontier")
                space = dse::frontierSpace();
            else if (preset == "smoke")
                space = dse::smokeSpace();
            if (!workload.empty()
                && !dse::applyAxisValue(space.base, "workload",
                                        workload, &error))
                return usageError(error);
            if (heapMib != 0
                && !dse::applyAxisValue(space.base, "heap-mib",
                                        std::to_string(heapMib),
                                        &error))
                return usageError(error);
            if (!backend.empty()
                && !dse::applyAxisValue(space.base, "backend",
                                        backend, &error))
                return usageError(error);
            for (const auto &spec : axisSpecs)
                if (!space.axisSpec(spec, &error))
                    return usageError(error);
            if (space.axes().empty())
                return usageError(
                    "nothing to sweep: give --axis flags or a "
                    "--preset (--list-axes shows the axes)");

            std::vector<dse::DsePoint> points =
                search == "random"
                    ? space.sample(static_cast<std::size_t>(
                                       samples > 0 ? samples : 1),
                                   searchSeed)
                    : space.enumerate();
            std::fprintf(stderr,
                         "dse: %zu of %zu points, search=%s\n",
                         points.size(), space.size(), search.c_str());

            std::vector<dse::PointEval> evals;
            if (search == "halving") {
                std::function<void(const std::vector<dse::DsePoint> &,
                                   int)>
                    preEvaluate;
                if (shards > 0) {
                    // Halving stays adaptive — survivors depend on
                    // global results — but each round's cell work is
                    // sharded before the in-process evaluate sees it.
                    preEvaluate =
                        [&](const std::vector<dse::DsePoint> &round,
                            int gcs) {
                            auto pc = dse::pointCells(round, gcs);
                            int rc = shardPrerun(
                                pc, pointUnits(round.size()), gcs);
                            if (rc >= 0)
                                throw ShardExit{rc};
                        };
                }
                evals = dse::successiveHalving(
                    explorer, std::move(points), screenGcs,
                    static_cast<std::size_t>(finalists > 0 ? finalists
                                                           : 1),
                    preEvaluate);
            } else {
                if (shards > 0) {
                    auto pc = dse::pointCells(points, 0);
                    int rc =
                        shardPrerun(pc, pointUnits(points.size()), 0);
                    if (rc >= 0)
                        return rc;
                }
                evals = explorer.evaluate(points);
            }

            auto summary = dse::summarize(evals);
            dse::reportSweep(report, evals, summary);
            if (!paretoCsv.empty()) {
                if (!dse::writeParetoCsv(paretoCsv, evals, summary,
                                         &error)) {
                    std::fprintf(stderr, "dse: %s\n", error.c_str());
                    return 1;
                }
                std::fprintf(stderr,
                             "dse: wrote Pareto frontier (%zu "
                             "points) to %s\n",
                             summary.frontier.size(),
                             paretoCsv.c_str());
            }
        }
    } catch (const dse::SweepInterrupted &) {
        std::fprintf(stderr,
                     "dse: interrupted; completed cells are in %s — "
                     "re-run the same command to resume\n",
                     journal.enabled() ? journal.path().c_str()
                                       : "(no journal)");
        return 130;
    } catch (const ShardExit &e) {
        // A supervised halving round was interrupted or failed; the
        // exit code (130 preserved under shard fan-out) is already
        // explained on stderr.
        return e.code;
    }

    std::fprintf(stderr,
                 "dse: journal %s: %zu hits, %zu incremental, "
                 "%zu evaluated\n",
                 journal.enabled() ? journal.path().c_str()
                                   : "(disabled)",
                 explorer.journalHits(), explorer.incrementalHits(),
                 explorer.evaluatedCells());
    harness::finishTimeline(runner, opt);
    int rc = report.finish(std::cout);
    // Exit 3: the sweep completed but poison points were quarantined
    // (their failure rows are in the report).  Distinct from both a
    // clean 0 and a plain failure 1 so scripts can continue a mostly
    // good sweep while flagging the quarantine list.
    if (anyQuarantined)
        return 3;
    return rc;
}
