// Shared scaffolding for the table/figure reproduction benches.
//
// Every bench accepts the same environment knobs so one binary serves both
// paper-scale runs and quick smoke runs:
//   JSCHED_CTC_JOBS    jobs in the CTC-like trace        (default 79164)
//   JSCHED_SYNTH_JOBS  jobs in probabilistic/randomized  (default 50000)
//   JSCHED_JOBS        cap applied to EVERY workload     (default: off)
//   JSCHED_SEED        master seed                       (default 19990412)
//   JSCHED_MACHINE     batch partition size              (default 256)
//   JSCHED_THREADS     worker threads for grid sweeps    (default 1;
//                      0 = one per hardware thread; any value yields
//                      results identical to the serial run)
//   JSCHED_JOURNAL     sweep-journal path: completed grid cells are
//                      checkpointed there and skipped on re-run, so a
//                      killed bench resumes where it died (default: off)
//   JSCHED_ERROR_POLICY fail_fast | isolate | retry     (default fail_fast;
//                      isolate completes healthy grid cells when one
//                      throws and prints a failure table)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "eval/experiment.h"
#include "eval/reporting.h"
#include "sim/machine.h"
#include "workload/workload.h"

namespace jsched::bench {

struct BenchConfig {
  std::size_t ctc_jobs = 79'164;    // paper Table 1
  std::size_t synth_jobs = 50'000;  // paper Table 1
  std::size_t cap = 0;              // 0 = no cap
  std::uint64_t seed = 19'990'412;
  int machine_nodes = 256;          // Institution B's batch partition
  std::size_t threads = 1;          // 0 = hardware concurrency
};

BenchConfig config_from_env();

sim::Machine machine_of(const BenchConfig& cfg);

/// The CTC-like trace (430-node model) trimmed to the configured machine,
/// capped to JSCHED_JOBS when set. Prints the trim statistics.
workload::Workload ctc_workload(const BenchConfig& cfg);

/// Apply the JSCHED_JOBS cap.
workload::Workload capped(workload::Workload w, const BenchConfig& cfg);

/// Print the workload's summary block.
void print_workload(const workload::Workload& w, const BenchConfig& cfg);

/// Apply the harness fault-tolerance env knobs to `opt`:
/// JSCHED_ERROR_POLICY selects eval::ErrorPolicy and JSCHED_JOURNAL
/// attaches the process-wide eval::SweepJournal (opened on first use;
/// completed cells persist across process restarts — the kill-and-resume
/// workflow in README.md). No-op when neither variable is set.
void apply_resilience_env(eval::ExperimentOptions& opt);

/// Run the 13-configuration grid for one objective, with progress dots on
/// stderr, and return the results. Honors JSCHED_THREADS (the results are
/// identical to a serial run; only the wall clock changes). When
/// `wall_seconds` is non-null it receives the grid's wall-clock time.
std::vector<eval::RunResult> run_grid_verbose(const sim::Machine& m,
                                              core::WeightKind weight,
                                              const workload::Workload& w,
                                              bool measure_cpu = true,
                                              double* wall_seconds = nullptr);

/// One qualitative expectation from the paper ("who wins"), checked
/// against measured data and printed as a PASS/FAIL line. These are the
/// machine-checkable halves of EXPERIMENTS.md.
struct ShapeCheck {
  std::string description;
  bool pass;
};

void print_shape_checks(const std::vector<ShapeCheck>& checks);

/// Convenience accessors into grid results.
double metric_of(const std::vector<eval::RunResult>& results,
                 core::OrderKind order, core::DispatchKind dispatch,
                 double eval::RunResult::* metric);

/// Write the full-grid perf trajectory as JSON (BENCH_grid.json): wall
/// seconds per objective plus, per configuration, the scheduler CPU
/// seconds and the schedule fingerprint. The fingerprints double as the
/// bit-identity baseline for future optimization PRs.
void write_grid_bench_json(const std::string& path, const BenchConfig& cfg,
                           const std::vector<eval::RunResult>& unweighted,
                           double unweighted_wall,
                           const std::vector<eval::RunResult>& weighted,
                           double weighted_wall);

/// One bounded-memory scale run: FCFS+EASY simulated straight off a
/// streamed CTC-model source (no Workload, no Schedule — O(live jobs)
/// state) with metrics folded by metrics::StreamingAggregator. The trace
/// is generated at the machine's width (streaming cannot trim) with the
/// inter-arrival mean stretched so the offered load stays just under 1 —
/// heavy but drainable, like the paper's trimmed trace.
struct ScaleRunResult {
  std::size_t jobs = 0;
  double wall_seconds = 0.0;
  double jobs_per_second = 0.0;
  long peak_rss_mib = 0;  // getrusage(RUSAGE_SELF) ru_maxrss, whole process
  std::uint64_t schedule_fnv = 0;
  double art = 0.0;
  double utilization = 0.0;
  Time makespan = 0;
  std::size_t peak_live_jobs = 0;
  std::size_t max_queue_length = 0;
};

ScaleRunResult run_scale_stream(std::size_t jobs, std::uint64_t seed,
                                int machine_nodes);

/// Whole-process peak resident set in MiB (ru_maxrss).
long peak_rss_mib();

/// Write a fault-injection degradation curve as JSON (BENCH_fault.json):
/// one entry per sweep point (failure intensity), each carrying the full
/// grid's resilience metrics — ART, goodput fraction, availability, kills,
/// wasted node-seconds and the schedule fingerprint. curve[i] must be the
/// GridResult::results() of the run_fault_sweep_outcomes point labeled
/// labels[i].
void write_fault_bench_json(
    const std::string& path, const BenchConfig& cfg,
    const std::vector<std::string>& labels,
    const std::vector<std::vector<eval::RunResult>>& curve);

}  // namespace jsched::bench
