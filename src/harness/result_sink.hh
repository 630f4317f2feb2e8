/**
 * @file
 * ResultSink / Report: structured output for harness experiments.
 *
 * A ResultSink is one logical table (headers + rows + trailing
 * notes); a Report owns the sinks of one binary plus the failed-cell
 * summary, and renders everything as aligned text (the classic bench
 * look), CSV, or JSON — so the perf trajectory can be diffed and
 * plotted across commits.
 */

#ifndef CHARON_HARNESS_RESULT_SINK_HH
#define CHARON_HARNESS_RESULT_SINK_HH

#include <deque>
#include <ostream>
#include <string>
#include <vector>

#include "harness/cell.hh"
#include "harness/options.hh"

namespace charon::harness
{

/**
 * Speedup-style table cell: @p numerator / @p denominator rendered
 * via report::times(), or "-" when the ratio is undefined — a
 * zero-GC cell (denominator 0) or a non-finite operand.  Benches use
 * this instead of dividing inline so an empty distribution can never
 * leak "inf"/"nan" into a diffed table or a geomean input.
 */
std::string ratioCell(double numerator, double denominator);

/** True when @p v is a usable sample: finite and > 0. */
bool usableSample(double v);

class ResultSink
{
  public:
    ResultSink(std::string id, std::string title,
               std::vector<std::string> headers);

    /** Append one row; must match the header count. */
    ResultSink &addRow(std::vector<std::string> cells);

    /** Trailing commentary (paper comparisons); aligned mode only. */
    ResultSink &note(std::string text);

    const std::string &id() const { return id_; }
    const std::string &title() const { return title_; }
    const std::vector<std::string> &headers() const { return headers_; }
    const std::vector<std::vector<std::string>> &rows() const
    {
        return rows_;
    }
    const std::vector<std::string> &notes() const { return notes_; }

  private:
    std::string id_;
    std::string title_;
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
    std::vector<std::string> notes_;
};

class Report
{
  public:
    explicit Report(Options opt) : opt_(std::move(opt)) {}

    /** Start a new table; the reference stays valid for the report's
     *  lifetime. */
    ResultSink &table(std::string id, std::string title,
                      std::vector<std::string> headers);

    /** Record a failed cell for the end-of-run summary. */
    void cellFailed(const std::string &label, const CellResult &result);

    /**
     * Append the per-phase primitive roll-up table for @p cells
     * (--rollup only; a no-op otherwise, so benches can call it
     * unconditionally without disturbing their diffed default
     * output).  One row per (cell, collection, phase, work kind).
     */
    void addRollups(const std::vector<Cell> &cells,
                    const std::vector<CellResult> &results);

    /** Convenience: label from workload + platform when ok is false;
     *  returns true when the cell is usable. */
    bool checkCell(const Cell &cell, const CellResult &result);

    /**
     * Render every sink (aligned text or CSV per options), print the
     * failed-cell summary, and write the JSON file when requested.
     * Returns a process exit code: 1 when any cell failed for a
     * reason other than OOM (crash, timeout, quarantine, replay
     * error — CI must notice), or when every cell failed; 0
     * otherwise.  OOM alone stays 0: heap-shrink sweeps hit it by
     * design.
     */
    int finish(std::ostream &os);

  private:
    void writeJson(std::ostream &os) const;

    Options opt_;
    std::deque<ResultSink> sinks_; // deque: stable references
    std::vector<std::string> failures_;
    std::size_t okCells_ = 0;
    bool hardFailure_ = false; ///< any non-OOM cell failure
};

} // namespace charon::harness

#endif // CHARON_HARNESS_RESULT_SINK_HH
