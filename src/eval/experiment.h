// The evaluation harness: run the paper's algorithm grid over a workload
// and collect every metric the tables and figures report.
//
// Fault tolerance: the *_outcomes entry points return RunOutcome cells that
// carry either a RunResult or a structured RunError, with the behavior on
// failure selected by ExperimentOptions::error_policy; run_grid is the
// throwing form that returns plain results. Under the default kFailFast
// policy the harness catches nothing, so a failure propagates as the
// original exception.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/factory.h"
#include "eval/outcome.h"
#include "fault/fault.h"
#include "sim/machine.h"
#include "workload/job_source.h"
#include "workload/workload.h"

namespace jsched::eval {

class SweepJournal;

/// Everything measured for one (algorithm, workload) simulation.
struct RunResult {
  core::AlgorithmSpec spec;
  std::string scheduler_name;
  std::size_t jobs = 0;

  double art = 0.0;      // average response time (s)
  double awrt = 0.0;     // average weighted response time (node-s * s / job)
  double wait = 0.0;     // average wait time (s)
  double makespan = 0.0;
  double utilization = 0.0;
  double scheduler_cpu_seconds = 0.0;
  std::size_t max_queue_length = 0;
  /// sim::schedule_fingerprint of the produced schedule: the bit-identity
  /// witness perf PRs compare against their baseline (BENCH_grid.json).
  std::uint64_t schedule_fnv = 0;

  // Resilience metrics (metrics::resilience). In a fault-free run goodput
  // equals the executed node-seconds, wasted is 0, availability is 1 and
  // the availability-weighted utilization equals `utilization`.
  double goodput_node_seconds = 0.0;
  double wasted_node_seconds = 0.0;
  double goodput_fraction = 1.0;
  double availability = 1.0;
  double availability_weighted_utilization = 0.0;
  std::size_t kills = 0;
  std::size_t jobs_hit = 0;

  /// The metric matching the run's objective (art for unit weight, awrt
  /// for area weight).
  double objective_cost() const {
    return spec.weight == core::WeightKind::kUnit ? art : awrt;
  }
};

/// One sweep cell: a RunResult or the structured error that replaced it.
struct RunOutcome {
  bool ok = false;
  /// Attempts consumed: 1 for a clean run, more under ErrorPolicy::kRetryN,
  /// and 0 when the result was resumed from a SweepJournal without
  /// re-simulating.
  std::size_t attempts = 1;
  RunResult result;  // meaningful iff ok
  RunError error;    // meaningful iff !ok

  static RunOutcome success(RunResult r, std::size_t attempts) {
    RunOutcome o;
    o.ok = true;
    o.attempts = attempts;
    o.result = std::move(r);
    return o;
  }
  static RunOutcome failure(RunError e) {
    RunOutcome o;
    o.ok = false;
    o.attempts = e.attempts;
    o.error = std::move(e);
    return o;
  }
};

/// One cell of a sweep: the configuration it simulates and the key it is
/// journaled under (cell_key, eval/journal.h).
struct SweepCell {
  core::AlgorithmSpec spec;
  std::uint64_t key = 0;
};

/// All cells of one sweep, in the order they were enumerated
/// (core::paper_grid order for a grid), plus the failure bookkeeping a
/// report needs.
struct GridResult {
  std::vector<RunOutcome> cells;
  /// Stale-journal report from SweepJournal::open_segment ("" when the
  /// journal matched the sweep, or no journal was used). Surfaced by
  /// failure_summary.
  std::string journal_note;

  std::size_t failed() const {
    std::size_t n = 0;
    for (const RunOutcome& c : cells) n += c.ok ? 0 : 1;
    return n;
  }
  bool all_ok() const { return failed() == 0; }
  /// Cells resumed from a journal (attempts == 0).
  std::size_t resumed() const {
    std::size_t n = 0;
    for (const RunOutcome& c : cells) n += (c.ok && c.attempts == 0) ? 1 : 0;
    return n;
  }
  /// The successful results, in cell order (failed cells are skipped; use
  /// failures() to see what is missing).
  std::vector<RunResult> results() const {
    std::vector<RunResult> out;
    out.reserve(cells.size());
    for (const RunOutcome& c : cells) {
      if (c.ok) out.push_back(c.result);
    }
    return out;
  }
  std::vector<RunError> failures() const {
    std::vector<RunError> out;
    for (const RunOutcome& c : cells) {
      if (!c.ok) out.push_back(c.error);
    }
    return out;
  }
};

/// Every run validates its schedule (sim::validate_schedule) before its
/// metrics are folded; run_streamed has no schedule to validate.
struct ExperimentOptions {
  bool measure_cpu = true;
  /// Worker threads for run_grid / run_replicated sweeps. 1 = fully serial
  /// (today's behavior, bit-for-bit); 0 = one per hardware thread. Results
  /// are aggregated in task-index order regardless of completion order, so
  /// any thread count returns identical RunResult vectors. Per-run
  /// scheduler CPU time stays per-thread: the event kernel scales its
  /// steady-clock callback brackets by the run's thread CPU / wall share,
  /// so time a worker spends waiting for a core (threads > cores) is not
  /// charged to its scheduler.
  std::size_t threads = 1;
  /// Called before each run with the algorithm display name (progress
  /// reporting in long benches); may be empty. With threads > 1 the
  /// callback is serialized by a mutex but fires in completion order.
  std::function<void(const std::string&)> on_run;
  /// Fault-injection axis, forwarded to every simulation (the referenced
  /// trace must outlive the run). Inactive by default; results are then
  /// bit-identical to a build without fault support. Simulation is
  /// deterministic in (workload, trace, recovery), so any `threads` value
  /// produces identical results under faults too.
  fault::FaultOptions faults{};

  /// What a sweep does when one cell throws (see outcome.h). kFailFast —
  /// the default — catches nothing: exceptions keep their original type
  /// and abort the sweep exactly as before this option existed.
  ErrorPolicy error_policy = ErrorPolicy::kFailFast;
  /// Checkpoint/resume journal (not owned; may be null). Completed cells
  /// are recorded; cells whose key is already journaled are skipped and
  /// their stored RunResult returned with attempts == 0. Works under every
  /// error policy.
  SweepJournal* journal = nullptr;
  /// Mixed into every journal cell key; lets one journal file hold several
  /// sweeps over the same workload (e.g. fault-sweep points) without
  /// collisions.
  std::uint64_t journal_salt = 0;
  /// Override scheduler construction (testing/CI hook: inject a throwing
  /// or instrumented scheduler for selected specs). Null = core
  /// factory. Must be thread-safe when threads > 1.
  std::function<std::unique_ptr<sim::Scheduler>(const core::AlgorithmSpec&)>
      scheduler_factory;
};

/// Simulate one algorithm over one workload. Always throws on failure
/// regardless of error_policy (a single run has no other cells to
/// salvage), and neither reads nor writes options.journal.
RunResult run_one(const sim::Machine& machine, const core::AlgorithmSpec& spec,
                  const workload::Workload& workload,
                  const ExperimentOptions& options = {});

/// Simulate one algorithm over a job *stream* without ever materializing
/// the workload or the schedule — the O(1)-RSS entry point for runs too
/// large to hold in memory (10M-job scaling studies). Metric semantics
/// are identical to run_one (same aggregation order, bit-identical
/// results), but no schedule is validated and `jobs` is the streamed
/// count. The source is consumed.
RunResult run_streamed(const sim::Machine& machine,
                       const core::AlgorithmSpec& spec,
                       workload::JobSource& source,
                       const ExperimentOptions& options = {});

/// Simulate the paper's full grid (13 configurations) for one objective.
/// Runs configurations on `options.threads` workers; the returned vector
/// is always in paper_grid order and identical for any thread count.
/// Under kIsolate / kRetryN a sweep with failed cells throws
/// std::runtime_error summarizing them — use run_grid_outcomes to receive
/// partial results instead.
std::vector<RunResult> run_grid(const sim::Machine& machine,
                                core::WeightKind weight,
                                const workload::Workload& workload,
                                const ExperimentOptions& options = {});

/// run_grid with per-cell outcomes. Under kFailFast the first cell failure
/// propagates as its original exception; under kIsolate / kRetryN every
/// healthy cell completes and failed cells carry their RunError.
GridResult run_grid_outcomes(const sim::Machine& machine,
                             core::WeightKind weight,
                             const workload::Workload& workload,
                             const ExperimentOptions& options = {});

/// Find the grid entry with the given order/dispatch; throws
/// std::out_of_range naming the missing pair if absent.
const RunResult& find(const std::vector<RunResult>& results,
                      core::OrderKind order, core::DispatchKind dispatch);

/// One point of a failure-intensity sweep: a label ("mtbf=7d") plus the
/// fault axis to apply.
struct FaultSweepPoint {
  std::string label;
  fault::FaultOptions faults;
};

/// Run the full grid once per sweep point (each via run_grid_outcomes, so
/// `options.threads` parallelizes within a point); result [i] belongs to
/// points[i]. Any faults already present in `options` are replaced by each
/// point's. Each point's journal cells are salted with the point's label
/// so one journal can hold the whole sweep. Degradation curves (goodput,
/// ART inflation, ...) read straight off the per-point results.
std::vector<GridResult> run_fault_sweep_outcomes(
    const sim::Machine& machine, core::WeightKind weight,
    const workload::Workload& workload,
    const std::vector<FaultSweepPoint>& points,
    const ExperimentOptions& options = {});

}  // namespace jsched::eval
