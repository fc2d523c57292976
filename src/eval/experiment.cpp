#include "eval/experiment.h"

#include <mutex>
#include <stdexcept>

#include "eval/internal.h"
#include "eval/journal.h"
#include "eval/shard.h"
#include "metrics/streaming.h"
#include "sim/schedule.h"
#include "sim/simulator.h"
#include "sim/streaming.h"
#include "util/hash.h"
#include "util/parallel.h"

namespace jsched::eval {

void ShardSpec::validate() const {
  if (count == 0) {
    throw std::invalid_argument("ShardSpec: count must be >= 1");
  }
  if (index >= count) {
    throw std::invalid_argument("ShardSpec: index " + std::to_string(index) +
                                " out of range for " + std::to_string(count) +
                                " shard" + (count == 1 ? "" : "s"));
  }
}

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
  } catch (const sim::CancelledError& e) {
    err.kind = e.reason() == sim::CancelledError::Reason::kDeadline
                   ? RunErrorKind::kTimeout
                   : RunErrorKind::kCancelled;
    err.message = e.what();
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
      options.error_policy == ErrorPolicy::kRetryN ? 1 + options.max_retries
                                                   : 1;
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

namespace {

/// Key for a grid cell; 0 when no journal is active (never looked up).
std::uint64_t grid_cell_key(const ExperimentOptions& options,
                            std::uint64_t workload_fnv, int machine_nodes,
                            const core::AlgorithmSpec& spec) {
  if (options.journal == nullptr) return 0;
  return cell_key(workload_fnv, machine_nodes, spec, options.journal_salt);
}

/// Workload fingerprint, computed only when a journal needs it.
std::uint64_t journal_workload_fnv(const ExperimentOptions& options,
                                   const workload::Workload& workload) {
  return options.journal == nullptr ? 0 : workload::fingerprint(workload);
}

}  // namespace

}  // namespace detail

namespace {

/// What one simulation hands back to run_with.
struct Simulated {
  metrics::StreamedMetrics metrics;
  double scheduler_cpu_seconds = 0.0;
  std::size_t max_queue_length = 0;
};

/// The part run_one and run_streamed share: announce the run, build the
/// scheduler, arm the per-run cancel token and assemble the RunResult.
/// `simulate` runs the scheduler, polling the token when it is non-null.
RunResult run_with(
    const core::AlgorithmSpec& spec, const ExperimentOptions& options,
    const std::function<Simulated(sim::Scheduler&, const sim::CancelToken*)>&
        simulate) {
  if (options.on_run) options.on_run(spec.display_name());

  auto scheduler = options.scheduler_factory ? options.scheduler_factory(spec)
                                             : core::make_scheduler(spec);
  // Per-run deadline token, chained to the sweep-wide token (if any) so an
  // external cancel and a local deadline both stop this run.
  sim::CancelToken token(options.cancel);
  token.set_clock(options.clock);
  if (options.run_deadline.count() != 0) {
    token.set_deadline_after(options.run_deadline);
  }
  const bool cancellable =
      options.cancel != nullptr || options.run_deadline.count() != 0;
  const Simulated run = simulate(*scheduler, cancellable ? &token : nullptr);
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
  return run_with(spec, options, [&](sim::Scheduler& scheduler,
                                     const sim::CancelToken* cancel) {
    sim::StreamOptions stream_options;
    stream_options.measure_scheduler_cpu = options.measure_cpu;
    stream_options.faults = options.faults;
    stream_options.cancel = cancel;
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
  return run_with(spec, options, [&](sim::Scheduler& scheduler,
                                     const sim::CancelToken* cancel) {
    sim::SimOptions sim_options;
    sim_options.validate = options.validate;
    sim_options.measure_scheduler_cpu = options.measure_cpu;
    sim_options.faults = options.faults;
    sim_options.cancel = cancel;
    const sim::Schedule schedule =
        sim::simulate(machine, scheduler, workload, sim_options);
    return Simulated{metrics::aggregate(schedule, workload).finish(),
                     schedule.scheduler_cpu_seconds,
                     schedule.max_queue_length};
  });
}

RunOutcome run_one_outcome(const sim::Machine& machine,
                           const core::AlgorithmSpec& spec,
                           const workload::Workload& workload,
                           const ExperimentOptions& options) {
  const std::uint64_t key = detail::grid_cell_key(
      options, detail::journal_workload_fnv(options, workload), machine.nodes,
      spec);
  return detail::run_cell_protected(
      options, key, spec,
      [&] { return run_one(machine, spec, workload, options); });
}

GridResult run_grid_outcomes(const sim::Machine& machine,
                             core::WeightKind weight,
                             const workload::Workload& workload,
                             const ExperimentOptions& options) {
  options.shard.validate();
  const std::vector<core::AlgorithmSpec> specs = core::paper_grid(weight);
  // Cell keys serve two masters: journal checkpointing and the shard
  // partition. Either one needs the workload fingerprint computed.
  const bool keyed = options.journal != nullptr || options.shard.active();
  const std::uint64_t workload_fnv =
      keyed ? workload::fingerprint(workload) : 0;
  std::vector<std::uint64_t> keys(specs.size(), 0);
  if (keyed) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      keys[i] = cell_key(workload_fnv, machine.nodes, specs[i],
                         options.journal_salt);
    }
  }
  // The shard assignment is a pure function of this grid's key set, so
  // every shard process derives the identical disjoint partition with no
  // coordination (see shard.h).
  std::unique_ptr<ShardPlan> plan;
  if (options.shard.active()) {
    plan = std::make_unique<ShardPlan>(keys, options.shard.count);
  }
  GridResult out;
  if (options.journal != nullptr) {
    // Bind the journal to this sweep before any lookup: cells recorded
    // for a different workload/machine are stale and must not linger as
    // silent dead weight (their keys would never hit anyway — the point
    // is the explicit report and the fresh segment).
    out.journal_note = options.journal->open_segment(
        sweep_fingerprint(workload_fnv, machine.nodes));
  }
  out.cells.resize(specs.size());
  const auto run_cell = [&](std::size_t i, const ExperimentOptions& opts) {
    const core::AlgorithmSpec& spec = specs[i];
    if (plan != nullptr && plan->shard_of(keys[i]) != opts.shard.index) {
      out.cells[i] = RunOutcome::other_shard();
      return;
    }
    out.cells[i] = detail::run_cell_protected(
        opts, keys[i], spec,
        [&] { return run_one(machine, spec, workload, opts); });
  };

  // Each cell builds its own scheduler and simulates independently; slot i
  // of the output is written only by cell i, so results land in paper_grid
  // order no matter which configuration finishes first.
  detail::for_each_cell(specs.size(), options, run_cell);
  return out;
}

std::vector<RunResult> run_grid(const sim::Machine& machine,
                                core::WeightKind weight,
                                const workload::Workload& workload,
                                const ExperimentOptions& options) {
  if (options.shard.active()) {
    throw std::invalid_argument(
        "run_grid: a sharded sweep produces a partial grid; use "
        "run_grid_outcomes and merge the shard journals");
  }
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

std::vector<std::vector<RunResult>> run_fault_sweep(
    const sim::Machine& machine, core::WeightKind weight,
    const workload::Workload& workload,
    const std::vector<FaultSweepPoint>& points,
    const ExperimentOptions& options) {
  std::vector<std::vector<RunResult>> out;
  out.reserve(points.size());
  const std::vector<GridResult> grids =
      run_fault_sweep_outcomes(machine, weight, workload, points, options);
  for (std::size_t p = 0; p < grids.size(); ++p) {
    if (!grids[p].all_ok()) {
      std::string msg = "run_fault_sweep: point '" + points[p].label + "': " +
                        std::to_string(grids[p].failed()) + " cells failed:";
      for (const RunError& e : grids[p].failures()) {
        msg += "\n  " + e.describe();
      }
      throw std::runtime_error(msg);
    }
    out.push_back(grids[p].results());
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
