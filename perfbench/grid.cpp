// grid_ctc: the paper's unweighted 13-configuration grid over the
// 79,164-job synthetic CTC trace trimmed to 256 nodes, run serially
// through eval::run_grid — the paper's own experiment, where scheduler
// callbacks (above all the four +CONS configurations) do most of the work.
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "eval/experiment.h"
#include "metrics/objectives.h"
#include "metrics/resilience.h"
#include "pinned.h"
#include "sim/schedule.h"
#include "sim/simulator.h"
#include "workload/ctc_model.h"
#include "workload/transforms.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kConfigs = 13;

struct GridRun {
  double wall = 0.0;
  std::vector<std::uint64_t> fnvs;
  double cells = 0.0;  // summed scheduler lifetimes (with cell_clock only)
};

/// Forwards every call untimed; its lifetime brackets one grid cell's
/// simulate + validate + metrics inside eval::run_one, so the part of
/// run_grid outside all lifetimes is eval's own harness.
class LifetimeScheduler final : public sim::Scheduler {
 public:
  LifetimeScheduler(std::unique_ptr<sim::Scheduler> inner, double& total)
      : inner_(std::move(inner)), total_(total) {}
  ~LifetimeScheduler() override { total_ += seconds_since(t0_); }
  LifetimeScheduler(const LifetimeScheduler&) = delete;
  LifetimeScheduler& operator=(const LifetimeScheduler&) = delete;

  std::string name() const override { return inner_->name(); }
  void reset(const sim::Machine& m) override { inner_->reset(m); }
  void on_submit(const Submission& j, Time now) override {
    inner_->on_submit(j, now);
  }
  void on_complete(JobId id, Time now) override { inner_->on_complete(id, now); }
  void on_capacity_change(Time now, int nodes) override {
    inner_->on_capacity_change(now, nodes);
  }
  void select_starts(Time now, int free_nodes,
                     std::vector<JobId>& starts) override {
    inner_->select_starts(now, free_nodes, starts);
  }
  Time next_wakeup(Time now) const override { return inner_->next_wakeup(now); }
  std::size_t queue_length() const override { return inner_->queue_length(); }

 private:
  std::unique_ptr<sim::Scheduler> inner_;
  double& total_;
  Clock::time_point t0_ = Clock::now();
};

/// With a sampler, the machine's speed is probed before every configuration.
GridRun plain_grid(const sim::Machine& machine, const workload::Workload& w,
                   bool cell_clock = false, SpeedSampler* sampler = nullptr) {
  eval::ExperimentOptions options;  // validate + measure_cpu, as the paper grid
  options.threads = 1;
  if (sampler != nullptr) {
    options.on_run = [sampler](const std::string&) { sampler->sample(); };
  }
  GridRun run;
  if (cell_clock) {
    options.scheduler_factory = [&run](const core::AlgorithmSpec& spec) {
      return std::make_unique<LifetimeScheduler>(core::make_scheduler(spec),
                                                 run.cells);
    };
  }
  const Clock::time_point t0 = Clock::now();
  const std::vector<eval::RunResult> results =
      eval::run_grid(machine, core::WeightKind::kUnit, w, options);
  run.wall = seconds_since(t0);
  for (const eval::RunResult& r : results) run.fnvs.push_back(r.schedule_fnv);
  return run;
}

void check_pinned(Report& report, std::uint64_t seed,
                  const std::vector<std::uint64_t>& fnvs) {
  std::printf("grid fingerprints:");
  for (const std::uint64_t fnv : fnvs) std::printf(" %016" PRIx64, fnv);
  std::printf("\n");
  const std::vector<std::uint64_t>* pinned = pinned_grid_fnvs(seed);
  if (pinned == nullptr) {
    std::printf("no pinned grid fingerprints for seed %" PRIu64 "\n", seed);
    return;
  }
  gate(report, *pinned == fnvs, "grid fingerprints equal the pinned ones");
}

/// The per-configuration steps of eval::run_one, each timed, with the
/// scheduler assembled from traced parts. Returns the pass's wall time.
double traced_grid(const RunContext& ctx, const sim::Machine& machine,
                   const workload::Workload& w, const GridRun& plain,
                   LayerReport& layers) {
  SpanLog& spans = *ctx.spans;
  CoreTrace core;
  Tally simulate, validate, fingerprint, objectives;
  std::vector<std::uint64_t> fnvs;
  double sink = 0.0;  // keeps the objective values observable

  const int root = spans.open("grid.traced");
  const Clock::time_point t0 = Clock::now();
  for (const core::AlgorithmSpec& spec :
       core::paper_grid(core::WeightKind::kUnit)) {
    const std::string slug = config_slug(spec);
    const int cell = spans.open("grid.cell." + slug, root);
    const double core_before = core.seconds();
    const auto scheduler = make_traced_scheduler(spec, core);
    sim::SimOptions options;
    options.validate = false;  // timed on its own below
    options.measure_scheduler_cpu = true;
    sim::Schedule schedule;
    {
      Timed t(simulate);
      schedule = sim::simulate(machine, *scheduler, w, options);
    }
    {
      Timed t(validate);
      sim::validate_schedule(schedule, w);
    }
    {
      Timed t(fingerprint);
      fnvs.push_back(sim::schedule_fingerprint(schedule));
    }
    {
      Timed t(objectives);
      sink += metrics::average_response_time(schedule) +
              metrics::average_weighted_response_time(schedule) +
              metrics::average_wait_time(schedule) +
              static_cast<double>(metrics::makespan(schedule)) +
              metrics::utilization(schedule) +
              metrics::resilience(schedule, w).goodput_fraction;
    }
    layers.set("core.sched_s." + slug, core.seconds() - core_before);
    spans.close(cell);
  }
  const double wall = seconds_since(t0);
  spans.close(root);
  std::printf("traced grid: %.3f s (objective checksum %.6g)\n", wall, sink);

  gate(*ctx.report, fnvs == plain.fnvs,
       "traced grid (bench-built ListScheduler) reproduces the plain "
       "fingerprints");

  layers.add_core(core);
  layers.set("sim.kernel_self_s", simulate.seconds - core.seconds());
  layers.set("sim.rounds", static_cast<double>(core.next_wakeup_calls));
  layers.set("sim.validate_s", validate.seconds);
  layers.set("sim.fingerprint_s", fingerprint.seconds);
  layers.set("metrics.objectives_s", objectives.seconds);
  layers.set("workload.jobs", static_cast<double>(w.size()));

  return wall;
}

}  // namespace

void run_grid_ctc(const RunContext& ctx) {
  Report& report = *ctx.report;
  const sim::Machine machine{kMachineNodes};

  workload::Workload w;
  std::size_t dropped = 0;
  const SetupTime setup = median_setup(5, [&] {
    const Clock::time_point t0 = Clock::now();
    workload::CtcModelParams params;  // 79,164 jobs, as the CTC trace
    w = workload::trim_to_machine(workload::generate_ctc(params, ctx.seed),
                                  kMachineNodes, &dropped);
    return seconds_since(t0);
  });
  std::printf("workload: generate_ctc seed=%" PRIu64 ", %zu jobs after "
              "trimming %zu wider than %d nodes; setup %.4f s\n",
              ctx.seed, w.size(), dropped, kMachineNodes, setup.seconds);

  if (!ctx.trace) {
    std::vector<GridRun> runs;
    const Repetitions reps = repeat_within(ctx.seconds, [&](SpeedSampler& s) {
      const int span = ctx.spans->open("grid.run_grid");
      runs.push_back(plain_grid(machine, w, false, &s));
      ctx.spans->close(span);
      return runs.back().wall;
    });
    report.note_attempted(runs.size() * kConfigs * w.size());
    bool same = true;
    for (const GridRun& r : runs) same = same && r.fnvs == runs.front().fnvs;
    gate(report, same, "every run_grid repetition has identical fingerprints");
    check_pinned(report, ctx.seed, runs.front().fnvs);
    emit_end_to_end(report, setup, reps,
                    static_cast<double>(kConfigs * w.size()));
    return;
  }

  LayerReport layers;
  layers.set("workload.gen_s", setup.seconds);
  layers.set("workload.offered_load",
             workload::summarize(w).offered_load(kMachineNodes));
  const GridRun plain = plain_grid(machine, w, /*cell_clock=*/true);
  report.note_attempted(2 * kConfigs * w.size());
  check_pinned(report, ctx.seed, plain.fnvs);
  layers.set("eval.harness_s", plain.wall - plain.cells);
  const double traced_wall = traced_grid(ctx, machine, w, plain, layers);
  layers.finish(report, traced_wall, plain.wall);
}

}  // namespace perfbench
