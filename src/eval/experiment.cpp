#include "eval/experiment.h"

#include <mutex>
#include <stdexcept>

#include "eval/internal.h"
#include "eval/journal.h"
#include "metrics/streaming.h"
#include "sim/schedule.h"
#include "sim/simulator.h"
#include "sim/streaming.h"
#include "util/hash.h"
#include "util/parallel.h"

namespace jsched::eval {

namespace detail {

void for_each_cell(
    std::size_t n, const ExperimentOptions& options,
    const std::function<void(std::size_t, const ExperimentOptions&)>& cell) {
  std::mutex on_run_mu;
  ExperimentOptions per_cell = options;
  if (options.on_run) {
    per_cell.on_run = [&options, &on_run_mu](const std::string& name) {
      std::lock_guard<std::mutex> lock(on_run_mu);
      options.on_run(name);
    };
  }
  const std::size_t threads =
      options.threads == 0 ? util::hardware_threads() : options.threads;
  util::parallel_for_each(
      n, threads, [&](std::size_t i) { cell(i, per_cell); },
      {.stop_on_error = options.error_policy == ErrorPolicy::kFailFast});
}

RunError classify_current_exception(const std::string& scheduler) {
  RunError err;
  err.scheduler = scheduler;
  try {
    throw;
  } catch (const PhaseError& e) {
    err.kind = e.kind();
    err.message = e.what();
  } catch (const sim::ValidationError& e) {
    err.kind = RunErrorKind::kValidation;
    err.message = e.what();
  } catch (const std::logic_error& e) {
    // The simulator's event-loop contract checks (bad start selections,
    // overallocation, out-of-order events) throw logic_error: the
    // scheduler, not the harness, broke the rules.
    err.kind = RunErrorKind::kScheduler;
    err.message = e.what();
  } catch (const std::exception& e) {
    err.kind = RunErrorKind::kSimulation;
    err.message = e.what();
  } catch (...) {
    err.kind = RunErrorKind::kSimulation;
    err.message = "unknown non-standard exception";
  }
  return err;
}

RunOutcome run_cell_protected(const ExperimentOptions& options,
                              std::uint64_t key,
                              const core::AlgorithmSpec& spec,
                              const std::function<RunResult()>& attempt) {
  if (options.journal != nullptr) {
    RunResult cached;
    if (options.journal->lookup(key, spec, &cached)) {
      return RunOutcome::success(std::move(cached), 0);
    }
  }
  const auto record = [&](const RunResult& r) {
    if (options.journal != nullptr) options.journal->record(key, r);
  };
  if (options.error_policy == ErrorPolicy::kFailFast) {
    // Nothing is caught: callers observe the original exception type.
    RunResult r = attempt();
    record(r);
    return RunOutcome::success(std::move(r), 1);
  }
  const std::size_t total_attempts =
      options.error_policy == ErrorPolicy::kRetryN ? 1 + kMaxRetries : 1;
  RunError err;
  for (std::size_t tries = 1; tries <= total_attempts; ++tries) {
    try {
      RunResult r = attempt();
      record(r);
      return RunOutcome::success(std::move(r), tries);
    } catch (...) {
      err = classify_current_exception(spec.display_name());
      err.attempts = tries;
    }
  }
  return RunOutcome::failure(std::move(err));
}

}  // namespace detail

namespace {

/// What one simulation hands back to run_with.
struct Simulated {
  metrics::StreamedMetrics metrics;
  double scheduler_cpu_seconds = 0.0;
  std::size_t max_queue_length = 0;
};

/// The part run_one and run_streamed share: announce the run, build the
/// scheduler, let `simulate` run it and assemble the RunResult.
RunResult run_with(const core::AlgorithmSpec& spec,
                   const ExperimentOptions& options,
                   const std::function<Simulated(sim::Scheduler&)>& simulate) {
  if (options.on_run) options.on_run(spec.display_name());

  auto scheduler = options.scheduler_factory ? options.scheduler_factory(spec)
                                             : core::make_scheduler(spec);
  const Simulated run = simulate(*scheduler);
  const metrics::StreamedMetrics& m = run.metrics;

  RunResult r;
  r.spec = spec;
  r.scheduler_name = scheduler->name();
  r.jobs = m.jobs;
  r.art = m.art;
  r.awrt = m.awrt;
  r.wait = m.wait;
  r.makespan = static_cast<double>(m.makespan);
  r.utilization = m.utilization;
  r.scheduler_cpu_seconds = run.scheduler_cpu_seconds;
  r.max_queue_length = run.max_queue_length;
  r.schedule_fnv = m.schedule_fnv;
  r.goodput_node_seconds = m.resilience.useful_node_seconds;
  r.wasted_node_seconds = m.resilience.wasted_node_seconds;
  r.goodput_fraction = m.resilience.goodput_fraction;
  r.availability = m.resilience.availability;
  r.availability_weighted_utilization =
      m.resilience.availability_weighted_utilization;
  r.kills = m.resilience.kills;
  r.jobs_hit = m.resilience.jobs_hit;
  return r;
}

}  // namespace

RunResult run_streamed(const sim::Machine& machine,
                       const core::AlgorithmSpec& spec,
                       workload::JobSource& source,
                       const ExperimentOptions& options) {
  return run_with(spec, options, [&](sim::Scheduler& scheduler) {
    sim::StreamOptions stream_options;
    stream_options.measure_scheduler_cpu = options.measure_cpu;
    stream_options.faults = options.faults;
    metrics::StreamingAggregator aggregator(machine.nodes);
    const sim::StreamStats stats = sim::simulate_stream(
        machine, scheduler, source, aggregator, stream_options);
    return Simulated{aggregator.finish(), stats.scheduler_cpu_seconds,
                     stats.max_queue_length};
  });
}

RunResult run_one(const sim::Machine& machine, const core::AlgorithmSpec& spec,
                  const workload::Workload& workload,
                  const ExperimentOptions& options) {
  return run_with(spec, options, [&](sim::Scheduler& scheduler) {
    sim::SimOptions sim_options;
    sim_options.measure_scheduler_cpu = options.measure_cpu;
    sim_options.faults = options.faults;
    const sim::Schedule schedule =
        sim::simulate(machine, scheduler, workload, sim_options);
    return Simulated{metrics::aggregate(schedule, workload).finish(),
                     schedule.scheduler_cpu_seconds,
                     schedule.max_queue_length};
  });
}

namespace detail {

std::vector<SweepCell> grid_cells(std::uint64_t workload_fnv,
                                  int machine_nodes, core::WeightKind weight,
                                  std::uint64_t salt) {
  std::vector<SweepCell> cells;
  for (const core::AlgorithmSpec& spec : core::paper_grid(weight)) {
    cells.push_back({spec, cell_key(workload_fnv, machine_nodes, spec, salt)});
  }
  return cells;
}

GridResult run_cells(const sim::Machine& machine,
                     const workload::Workload& workload,
                     std::uint64_t workload_fnv,
                     const std::vector<SweepCell>& cells,
                     const ExperimentOptions& options) {
  GridResult out;
  if (options.journal != nullptr) {
    // Bind the journal to this sweep before any lookup: cells recorded
    // for a different workload/machine are stale and must not linger as
    // silent dead weight (their keys would never hit anyway — the point
    // is the explicit report and the fresh segment).
    out.journal_note = options.journal->open_segment(
        sweep_fingerprint(workload_fnv, machine.nodes));
  }
  out.cells.resize(cells.size());
  // Each cell builds its own scheduler and simulates independently; slot i
  // of the output is written only by cell i, so results land in cell
  // order no matter which configuration finishes first.
  for_each_cell(cells.size(), options,
                [&](std::size_t i, const ExperimentOptions& opts) {
                  const SweepCell& cell = cells[i];
                  out.cells[i] = run_cell_protected(
                      opts, cell.key, cell.spec, [&] {
                        return run_one(machine, cell.spec, workload, opts);
                      });
                });
  return out;
}

}  // namespace detail

GridResult run_grid_outcomes(const sim::Machine& machine,
                             core::WeightKind weight,
                             const workload::Workload& workload,
                             const ExperimentOptions& options) {
  // Only a journal reads the cell keys; without one the workload goes
  // unhashed.
  const std::uint64_t workload_fnv =
      options.journal != nullptr ? workload::fingerprint(workload) : 0;
  return detail::run_cells(
      machine, workload, workload_fnv,
      detail::grid_cells(workload_fnv, machine.nodes, weight,
                         options.journal_salt),
      options);
}

std::vector<RunResult> run_grid(const sim::Machine& machine,
                                core::WeightKind weight,
                                const workload::Workload& workload,
                                const ExperimentOptions& options) {
  GridResult grid = run_grid_outcomes(machine, weight, workload, options);
  // Only reachable under kIsolate / kRetryN: kFailFast already threw the
  // original exception from inside the sweep.
  if (!grid.all_ok()) {
    std::string msg = "run_grid: " + std::to_string(grid.failed()) + " of " +
                      std::to_string(grid.cells.size()) + " cells failed:";
    for (const RunError& e : grid.failures()) {
      msg += "\n  " + e.describe();
    }
    msg += "\nuse run_grid_outcomes to receive partial results";
    throw std::runtime_error(msg);
  }
  return grid.results();
}

std::vector<GridResult> run_fault_sweep_outcomes(
    const sim::Machine& machine, core::WeightKind weight,
    const workload::Workload& workload,
    const std::vector<FaultSweepPoint>& points,
    const ExperimentOptions& options) {
  std::vector<GridResult> out;
  out.reserve(points.size());
  for (const FaultSweepPoint& point : points) {
    ExperimentOptions per_point = options;
    per_point.faults = point.faults;
    // Salt the journal key per point: the same grid cell under different
    // fault intensities is different work.
    per_point.journal_salt =
        options.journal_salt ^ util::fnv1a(point.label);
    out.push_back(run_grid_outcomes(machine, weight, workload, per_point));
  }
  return out;
}

const RunResult& find(const std::vector<RunResult>& results,
                      core::OrderKind order, core::DispatchKind dispatch) {
  for (const RunResult& r : results) {
    if (r.spec.order == order && r.spec.dispatch == dispatch) return r;
  }
  throw std::out_of_range(std::string("eval::find: configuration ") +
                          core::to_string(order) + "+" +
                          core::to_string(dispatch) + " not in results");
}

}  // namespace jsched::eval
