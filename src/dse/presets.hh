/**
 * @file
 * Canned explorations: the paper's sensitivity sweeps re-expressed as
 * journal-backed ParamSpaces, plus the sweep reporting shared by
 * every charon-explore run.
 *
 * Figures 13 and 15 are defined here once, cells and render, for
 * both the bench binaries of the same name and the fig13 / fig15
 * presets, so `charon-explore --preset fig13` prints the bytes of
 * `bench/fig13_bandwidth` (CI diffs them) while journalling every
 * cell.  The frontier preset is the beyond-paper sweep: unit count x
 * offload threshold, scored on speedup vs. area and energy.
 */

#ifndef CHARON_DSE_PRESETS_HH
#define CHARON_DSE_PRESETS_HH

#include <string>
#include <vector>

#include "dse/explorer.hh"
#include "dse/param_space.hh"
#include "harness/result_sink.hh"

namespace charon::dse
{

/**
 * The CI smoke grid: 4 points x 2 cells on the cheapest workload —
 * small enough for a pull-request gate, rich enough to have a
 * non-trivial Pareto frontier.  Also the golden-guard grid, so its
 * shape is pinned by tests/golden/dse_pareto_golden.csv.
 */
ParamSpace smokeSpace();

/**
 * The beyond-paper frontier sweep: per-primitive unit count x copy
 * offload threshold on KM (the paper's Table 2 point is one cell of
 * this grid).
 */
ParamSpace frontierSpace();

/**
 * A paper figure defined once: the exact cell grid it evaluates (with
 * each cell's journal key) and its render from one JournalRecord per
 * cell.  The bench binary of the same name renders its runner's
 * results converted by toRecord(); `charon-explore --preset` renders
 * Explorer::runCells records, after the sweep supervisor has farmed
 * the same cells out to worker shards when --shards is set.  Every
 * path prints the same bytes.
 */
struct Figure
{
    const char *name; ///< the --preset value
    PointCells (*cells)();
    void (*render)(harness::Report &report,
                   const std::vector<harness::Cell> &cells,
                   const std::vector<JournalRecord> &records);
};

/** Figure 13: GC bandwidth on DDR4, HMC and Charon, and Charon's
 *  local-access ratio, per workload. */
PointCells fig13Cells();
void renderFig13(harness::Report &report,
                 const std::vector<harness::Cell> &cells,
                 const std::vector<JournalRecord> &records);

/** Figure 15: GC throughput scaling with threads on KM and CC, DDR4
 *  against Charon with unified and distributed structures. */
PointCells fig15Cells();
void renderFig15(harness::Report &report,
                 const std::vector<harness::Cell> &cells,
                 const std::vector<JournalRecord> &records);

/** The figure whose --preset value is @p name, or null. */
const Figure *findFigure(const std::string &name);

/** Frontier + knee of a finished sweep. */
struct SweepSummary
{
    std::vector<std::size_t> frontier; ///< indices into the evals
    std::size_t knee = 0;              ///< index into the evals
    bool valid = false; ///< false when no point evaluated ok
};

/** Extract the Pareto frontier and knee over the ok points. */
SweepSummary summarize(const std::vector<PointEval> &evals);

/**
 * Render a sweep: one row per point (objectives + frontier/knee
 * marks) and a frontier note.  Failed points go to the report's
 * failure summary.
 */
void reportSweep(harness::Report &report,
                 const std::vector<PointEval> &evals,
                 const SweepSummary &summary);

/**
 * The frontier as CSV (header + one row per frontier member, knee
 * flagged), doubles as %.17g so the text is reproducible.
 */
std::string paretoCsvText(const std::vector<PointEval> &evals,
                          const SweepSummary &summary);

/** Write paretoCsvText to @p path; false (with @p error) on I/O. */
bool writeParetoCsv(const std::string &path,
                    const std::vector<PointEval> &evals,
                    const SweepSummary &summary, std::string *error);

} // namespace charon::dse

#endif // CHARON_DSE_PRESETS_HH
