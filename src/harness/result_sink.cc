#include "result_sink.hh"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "report/table.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

namespace charon::harness
{

bool
usableSample(double v)
{
    return std::isfinite(v) && v > 0;
}

std::string
ratioCell(double numerator, double denominator)
{
    if (!usableSample(denominator) || !std::isfinite(numerator))
        return "-";
    return report::times(numerator / denominator);
}

ResultSink::ResultSink(std::string id, std::string title,
                       std::vector<std::string> headers)
    : id_(std::move(id)), title_(std::move(title)),
      headers_(std::move(headers))
{
}

ResultSink &
ResultSink::addRow(std::vector<std::string> cells)
{
    CHARON_ASSERT(cells.size() == headers_.size(),
                  "row width %zu != header width %zu in table %s",
                  cells.size(), headers_.size(), id_.c_str());
    rows_.push_back(std::move(cells));
    return *this;
}

ResultSink &
ResultSink::note(std::string text)
{
    notes_.push_back(std::move(text));
    return *this;
}

ResultSink &
Report::table(std::string id, std::string title,
              std::vector<std::string> headers)
{
    sinks_.emplace_back(std::move(id), std::move(title),
                        std::move(headers));
    return sinks_.back();
}

void
Report::cellFailed(const std::string &label, const CellResult &result)
{
    if (!result.oom)
        hardFailure_ = true;
    failures_.push_back(label + ": "
                        + (result.error.empty() ? "failed"
                                                : result.error));
}

bool
Report::checkCell(const Cell &cell, const CellResult &result)
{
    if (result.ok) {
        ++okCells_;
        return true;
    }
    std::string label = cell.label;
    if (label.empty()) {
        label = cell.key.workload + " on "
                + sim::platformName(cell.platform);
    }
    cellFailed(label, result);
    return false;
}

void
Report::addRollups(const std::vector<Cell> &cells,
                   const std::vector<CellResult> &results)
{
    if (!opt_.rollup)
        return;
    CHARON_ASSERT(cells.size() == results.size(),
                  "rollup: %zu cells vs %zu results", cells.size(),
                  results.size());
    auto &sink = table("rollup", "Per-phase primitive roll-up",
                       {"cell", "gc", "phase", "work", "seconds",
                        "bytes", "invocations"});
    auto fmt = [](double v) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.6g", v);
        return std::string(buf);
    };
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &cell = cells[i];
        const CellResult &res = results[i];
        if (!res.ok || !cell.replay)
            continue;
        std::string label = cell.label;
        if (label.empty()) {
            label = cell.key.workload + " on "
                    + sim::platformName(cell.platform);
        }
        for (std::size_t g = 0; g < res.timing.gcs.size(); ++g) {
            const gc::GcRollup &gc = res.timing.gcs[g].rollup;
            std::string gc_id = "#";
            gc_id += std::to_string(g);
            gc_id += gc.major ? " major" : " minor";
            for (const auto &phase : gc.phases) {
                const char *pname = gc::phaseKindName(phase.kind);
                for (int k = 0; k < gc::kNumPrimKinds; ++k) {
                    const auto &cellv = phase.prims[k];
                    if (cellv.seconds == 0 && cellv.invocations == 0)
                        continue;
                    sink.addRow(
                        {label, gc_id, pname,
                         gc::primKindName(static_cast<gc::PrimKind>(k)),
                         fmt(cellv.seconds),
                         std::to_string(cellv.bytes),
                         std::to_string(cellv.invocations)});
                }
                if (phase.glueSeconds != 0) {
                    sink.addRow({label, gc_id, pname, "glue",
                                 fmt(phase.glueSeconds), "-", "-"});
                }
            }
        }
    }
}

void
Report::writeJson(std::ostream &os) const
{
    os << "{\n  \"tables\": [\n";
    bool first_sink = true;
    for (const auto &sink : sinks_) {
        if (!first_sink)
            os << ",\n";
        first_sink = false;
        os << "    {\n      \"id\": ";
        sim::putJsonString(os, sink.id());
        os << ",\n      \"title\": ";
        sim::putJsonString(os, sink.title());
        os << ",\n      \"rows\": [\n";
        bool first_row = true;
        for (const auto &row : sink.rows()) {
            if (!first_row)
                os << ",\n";
            first_row = false;
            os << "        {";
            for (std::size_t c = 0; c < row.size(); ++c) {
                if (c)
                    os << ", ";
                sim::putJsonString(os, sink.headers()[c]);
                os << ": ";
                sim::putJsonString(os, row[c]);
            }
            os << '}';
        }
        os << "\n      ]\n    }";
    }
    os << "\n  ],\n  \"failed_cells\": [";
    for (std::size_t i = 0; i < failures_.size(); ++i) {
        if (i)
            os << ", ";
        sim::putJsonString(os, failures_[i]);
    }
    os << "]\n}\n";
}

int
Report::finish(std::ostream &os)
{
    for (const auto &sink : sinks_) {
        if (opt_.csv) {
            os << "# " << sink.id() << ": " << sink.title() << '\n';
            report::Table table(sink.headers());
            for (const auto &row : sink.rows())
                table.addRow(row);
            table.printCsv(os);
        } else {
            if (!sink.title().empty())
                report::heading(os, sink.title());
            report::Table table(sink.headers());
            for (const auto &row : sink.rows())
                table.addRow(row);
            table.print(os);
            for (const auto &n : sink.notes())
                os << n << '\n';
            os << '\n';
        }
    }
    if (!failures_.empty()) {
        if (opt_.csv) {
            for (const auto &f : failures_)
                os << "# failed-cell: " << f << '\n';
        } else {
            os << failures_.size()
               << " cell(s) failed and were excluded from the "
                  "aggregates:\n";
            for (const auto &f : failures_)
                os << "  - " << f << '\n';
        }
    }
    if (!opt_.jsonPath.empty()) {
        std::ofstream json(opt_.jsonPath);
        if (!json) {
            sim::warn("cannot write JSON report to %s",
                      opt_.jsonPath.c_str());
        } else {
            writeJson(json);
        }
    }
    if (hardFailure_)
        return 1;
    return (okCells_ == 0 && !failures_.empty()) ? 1 : 0;
}

} // namespace charon::harness
