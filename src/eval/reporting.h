// Rendering of grid results in the paper's table layouts.
#pragma once

#include <string>
#include <vector>

#include "eval/experiment.h"
#include "util/table.h"

namespace jsched::eval {

/// Tables 3-6 layout: one row per ordering algorithm (+ Garey&Graham),
/// columns Listscheduler / Backfilling / EASY-Backfilling, each with the
/// absolute metric and the percentage relative to FCFS+EASY (the paper's
/// reference, "as this algorithm is used by the CTC").
///
/// `metric` selects which RunResult field is shown (art or awrt).
util::Table response_time_table(const std::vector<RunResult>& results,
                                double RunResult::* metric,
                                const std::string& title);

/// Tables 7/8 layout: scheduler computation time as a percentage relative
/// to FCFS+EASY for the Listscheduler and EASY columns (the paper reports
/// SMART as a single row; we keep both variants).
util::Table cpu_time_table(const std::vector<RunResult>& results,
                           const std::string& title);

/// Figures 3-6 are bar charts over the same data; emit them as CSV series
/// (one row per algorithm/dispatch with the metric value) for plotting.
std::string figure_csv(const std::vector<RunResult>& results,
                       double RunResult::* metric);

/// Convenience: title string "<workload> (n jobs), <objective>".
std::string experiment_title(const std::string& workload_name,
                             std::size_t jobs, core::WeightKind weight);

/// Failure report of an isolated sweep: one row per failed cell with the
/// configuration, error kind, attempts consumed and message. Empty-rowed
/// (but still valid) when nothing failed.
util::Table failure_table(const GridResult& grid, const std::string& title);

/// One-line sweep health summary, e.g.
/// "12/13 cells ok, 1 failed (scheduler=1), 4 resumed from journal".
std::string failure_summary(const GridResult& grid);

/// Metadata block of the full-grid perf-trajectory JSON.
struct GridJsonMeta {
  std::size_t jobs = 0;
  int machine_nodes = 0;
  std::uint64_t seed = 0;
  std::size_t threads = 0;
};

/// Write the full-grid perf trajectory (the BENCH_grid.json format): wall
/// seconds per objective plus, per configuration, the scheduler CPU
/// seconds and the schedule fingerprint. One function emits the file for
/// both the single-process bench and the sharded sweep driver, so "the
/// merged grid reproduces BENCH_grid.json" is a byte-level statement about
/// identical inputs, not two writers happening to agree. Prints a warning
/// to stderr (and returns) when the file cannot be opened.
void write_grid_json(const std::string& path, const GridJsonMeta& meta,
                     const std::vector<RunResult>& unweighted,
                     double unweighted_wall,
                     const std::vector<RunResult>& weighted,
                     double weighted_wall);

}  // namespace jsched::eval
