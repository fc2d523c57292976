// The two serve-daemon workloads, both free-run serve() (speed 0: virtual
// time jumps event to event, so no request waits on pacing) fed by an
// open-loop Poisson serve::OpenLoopSource whose 1x rate is derived from
// the mean node-seconds of the generated job stream.
//
//  * serve_backlog: FCFS+CONS at 4x machine capacity, 20k jobs, unbounded
//    backlog: on_complete re-placement cost grows with the queue.
//  * serve_resilient: FCFS+EASY at 1x, 300k jobs, an AdmissionJournal at
//    flush durability and node failures (MTBF 1 week, MTTR 2 h,
//    checkpoint-restart); then a restart on the finished journal. The
//    journal, the fault kill path and recovery replay do the work, so the
//    measured wall spans the journaled run and the recovery together.
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "fault/failure_model.h"
#include "metrics/streaming.h"
#include "serve/daemon.h"
#include "serve/journal.h"
#include "serve/loadgen.h"
#include "sim/streaming.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kBacklogJobs = 20'000;
constexpr double kBacklogLoad = 4.0;
constexpr std::size_t kResilientJobs = 300'000;

std::vector<serve::SubmitRecord> drain(const serve::OpenLoopConfig& config) {
  serve::OpenLoopSource source(config);
  std::vector<serve::SubmitRecord> records;
  source.poll(kTimeInfinity, records);
  return records;
}

double node_seconds(const std::vector<serve::SubmitRecord>& records) {
  double area = 0.0;
  for (const serve::SubmitRecord& r : records) {
    area += static_cast<double>(r.nodes) * static_cast<double>(r.runtime);
  }
  return area;
}

/// An open-loop stream at `load` times machine capacity.
struct LoadPlan {
  serve::OpenLoopConfig config;
  double rate_1x = 0.0;
  double offered_load = 0.0;  // achieved: work / (capacity * arrival span)
  std::vector<serve::SubmitRecord> records;
};

LoadPlan plan_load(std::size_t jobs, double load, std::uint64_t seed) {
  LoadPlan plan;
  plan.config.job_count = jobs;
  plan.config.seed = seed;
  // Job shapes come from their own RNG stream, independent of the rate:
  // measure the mean node-seconds at any rate, then set the real one.
  plan.config.rate = 1.0;
  const double mean = node_seconds(drain(plan.config)) / static_cast<double>(jobs);
  plan.rate_1x = static_cast<double>(kMachineNodes) / mean;
  plan.config.rate = plan.rate_1x * load;
  plan.records = drain(plan.config);
  const double span = static_cast<double>(plan.records.back().submit -
                                          plan.records.front().submit + 1);
  plan.offered_load = node_seconds(plan.records) /
                      (static_cast<double>(kMachineNodes) * span);
  return plan;
}

/// The generated records as a job stream, for the offline reference run.
class RecordSource final : public workload::JobSource {
 public:
  explicit RecordSource(const std::vector<serve::SubmitRecord>& records)
      : records_(records) {}

  bool next(Job& out) override {
    if (pos_ == records_.size()) return false;
    const serve::SubmitRecord& r = records_[pos_];
    out = Job{};
    out.id = static_cast<JobId>(pos_++);
    out.submit = r.submit;
    out.nodes = r.nodes;
    out.runtime = r.runtime;
    out.estimate = r.estimate;
    out.user = r.user;
    return true;
  }
  std::size_t size_hint() const noexcept override { return records_.size(); }
  const std::string& name() const noexcept override { return name_; }

 private:
  const std::vector<serve::SubmitRecord>& records_;
  std::size_t pos_ = 0;
  std::string name_ = "openloop";
};

serve::ServeOptions free_run(const char* spec) {
  serve::ServeOptions options;
  options.machine.nodes = kMachineNodes;
  options.spec = core::parse_spec(spec);
  options.speed = 0;
  options.queue_capacity = 256;
  options.overload = serve::OverloadPolicy::kShed;
  return options;
}

struct ServeRun {
  double wall = 0.0;
  serve::ServeReport report;
};

/// One serve() call on a fresh generator, optionally through the traced
/// feed and scheduler wrappers.
ServeRun serve_once(const serve::OpenLoopConfig& load,
                    serve::ServeOptions options, CoreTrace* core = nullptr,
                    Tally* poll = nullptr) {
  serve::OpenLoopSource source(load);
  if (core != nullptr) {
    options.scheduler_factory = [core](const core::AlgorithmSpec& spec) {
      return make_traced_scheduler(spec, *core);
    };
  }
  ServeRun run;
  const Clock::time_point t0 = Clock::now();
  if (poll != nullptr) {
    TracedFeed feed(source, *poll);
    run.report = serve::serve(feed, options);
  } else {
    run.report = serve::serve(source, options);
  }
  run.wall = seconds_since(t0);
  return run;
}

/// `options` probing the machine's speed about once a second from the
/// daemon's once-per-loop poll_signal hook.
serve::ServeOptions probed(serve::ServeOptions options, SpeedSampler& sampler) {
  options.poll_signal = [&sampler] {
    sampler.sample_every(1.0);
    return 0;
  };
  return options;
}

/// Counts the run's jobs as attempted and every job not completed, shed,
/// rejected, dropped or admitted late as failed.
void account(Report& report, const serve::ServeReport& r, std::size_t jobs) {
  report.note_attempted(jobs);
  const std::size_t lost = jobs > r.completed ? jobs - r.completed : 0;
  report.note_failed(lost + r.shed_capacity + r.shed_backlog +
                     r.rejected_invalid + r.dropped_on_drain + r.late_arrivals);
}

double us(std::uint64_t ns) { return static_cast<double>(ns) / 1000.0; }

void print_run(const char* what, const ServeRun& run) {
  const serve::ServeReport& r = run.report;
  std::printf("%s: %.3f s, %zu completed, %zu rounds, p50 %.1f us, p99 %.1f "
              "us, p999 %.1f us, peak queue %zu, fnv %016" PRIx64 "\n",
              what, run.wall, r.completed, r.decisions,
              us(r.decision_latency_ns.p50()), us(r.decision_latency_ns.p99()),
              us(r.decision_latency_ns.p999()), r.peak_scheduler_queue,
              r.schedule_fnv);
}

void set_latency(LayerReport& layers, const serve::ServeReport& r) {
  layers.set("serve.decision_p50_us", us(r.decision_latency_ns.p50()));
  layers.set("serve.decision_p99_us", us(r.decision_latency_ns.p99()));
  layers.set("serve.decision_p999_us", us(r.decision_latency_ns.p999()));
}

void print_plan(const char* name, const LoadPlan& plan, std::uint64_t seed,
                double setup_s) {
  std::printf("workload: %s OpenLoopSource seed=%" PRIu64 ", %zu jobs, rate "
              "%.6f/s (1x = %.6f/s), achieved offered load %.3f; setup %.4f "
              "s\n",
              name, seed, plan.records.size(), plan.config.rate, plan.rate_1x,
              plan.offered_load, setup_s);
}

}  // namespace

void run_serve_backlog(const RunContext& ctx) {
  Report& report = *ctx.report;
  LoadPlan plan;
  const SetupTime setup_time = median_setup(3, [&] {
    const Clock::time_point t0 = Clock::now();
    plan = plan_load(kBacklogJobs, kBacklogLoad, ctx.seed);
    return seconds_since(t0);
  });
  print_plan("serve_backlog", plan, ctx.seed, setup_time.seconds);
  const serve::ServeOptions options = free_run("FCFS+CONS");

  // Reference: the offline simulator over the same generated records.
  const auto reference_scheduler = core::make_scheduler(options.spec);
  RecordSource records(plan.records);
  metrics::StreamingAggregator aggregator(kMachineNodes);
  const Clock::time_point t_ref = Clock::now();
  sim::simulate_stream(options.machine, *reference_scheduler, records,
                       aggregator);
  const std::uint64_t reference_fnv = aggregator.finish().schedule_fnv;
  std::printf("offline reference: %.3f s, fnv %016" PRIx64 "\n",
              seconds_since(t_ref), reference_fnv);

  const auto check = [&](const ServeRun& run, const char* what) {
    account(report, run.report, kBacklogJobs);
    gate(report, run.report.schedule_fnv == reference_fnv,
         std::string(what) + " fingerprint equals simulate_stream's");
  };

  if (!ctx.trace) {
    std::size_t completed = 0;
    const Repetitions reps = repeat_within(ctx.seconds, [&](SpeedSampler& s) {
      const int span = ctx.spans->open("serve_backlog.serve");
      const ServeRun run = serve_once(plan.config, probed(options, s));
      ctx.spans->close(span);
      print_run("serve", run);
      check(run, "served");
      completed = run.report.completed;
      return run.wall;
    });
    emit_end_to_end(report, setup_time, reps, static_cast<double>(completed));
    return;
  }

  LayerReport layers;
  layers.set("workload.gen_s", setup_time.seconds);
  layers.set("workload.offered_load", plan.offered_load);
  const ServeRun plain = serve_once(plan.config, options);
  print_run("plain serve", plain);
  check(plain, "plain served");
  set_latency(layers, plain.report);

  CoreTrace core;
  Tally poll;
  const int span = ctx.spans->open("serve_backlog.traced");
  const ServeRun traced = serve_once(plan.config, options, &core, &poll);
  ctx.spans->close(span);
  print_run("traced serve", traced);
  check(traced, "traced served");

  const serve::ServeReport& r = traced.report;
  layers.add_core(core);
  layers.set("sim.kernel_self_s", traced.wall - core.seconds() - poll.seconds);
  layers.set("sim.rounds", static_cast<double>(r.decisions));
  layers.set("workload.jobs", static_cast<double>(r.submitted));
  layers.set("serve.feed_poll_s", poll.seconds);
  layers.set("serve.decisions", static_cast<double>(r.decisions));
  layers.set("serve.peak_admission_queue",
             static_cast<double>(r.peak_admission_queue));
  layers.finish(report, traced.wall, plain.wall);
}

namespace {

struct ResilientSetup {
  LoadPlan plan;
  fault::FailureTrace failures;
  double fault_gen_s = 0.0;
};

ResilientSetup resilient_setup(std::uint64_t seed) {
  ResilientSetup s;
  s.plan = plan_load(kResilientJobs, 1.0, seed);
  fault::FailureModelParams params;
  params.nodes = kMachineNodes;
  params.horizon = s.plan.records.back().submit + 1;
  params.mtbf = 7.0 * static_cast<double>(kDay);
  params.mttr = 2.0 * static_cast<double>(kHour);
  const Clock::time_point t0 = Clock::now();
  // A seed of its own, so the failures are not correlated with arrivals.
  s.failures = fault::generate_failures(params, seed ^ 0x9e3779b97f4a7c15ull);
  s.fault_gen_s = seconds_since(t0);
  return s;
}

/// A journaled run on an empty journal, then a restart on the finished
/// journal. `recovery` spans opening the journal to the restarted serve()
/// returning; `open` is the journal-opening part of it.
struct JournaledRun {
  ServeRun run;
  ServeRun restart;
  double recovery = 0.0;
  double open = 0.0;
  std::uint64_t journal_bytes = 0;
};

/// With a sampler, the machine's speed is probed during both runs.
JournaledRun journaled(const std::string& path, const LoadPlan& plan,
                       serve::ServeOptions options, CoreTrace* core = nullptr,
                       Tally* poll = nullptr, SpeedSampler* sampler = nullptr) {
  if (sampler != nullptr) options = probed(std::move(options), *sampler);
  JournaledRun out;
  std::filesystem::remove(path);
  {
    serve::AdmissionJournal journal(path, util::AppendLog::Durability::kFlush);
    options.journal = &journal;
    out.run = serve_once(plan.config, options, core, poll);
  }
  out.journal_bytes = file_bytes(path);
  const Clock::time_point t0 = Clock::now();
  serve::AdmissionJournal journal(path, util::AppendLog::Durability::kFlush);
  out.open = seconds_since(t0);
  options.journal = &journal;
  out.restart = serve_once(plan.config, options, core, poll);
  out.recovery = seconds_since(t0);
  return out;
}

}  // namespace

void run_serve_resilient(const RunContext& ctx) {
  Report& report = *ctx.report;
  ResilientSetup setup;
  const SetupTime setup_time = median_setup(3, [&] {
    const Clock::time_point t0 = Clock::now();
    setup = resilient_setup(ctx.seed);
    return seconds_since(t0);
  });
  print_plan("serve_resilient", setup.plan, ctx.seed, setup_time.seconds);
  std::printf("failures: generate_failures MTBF 7 d, MTTR 2 h, %zu capacity "
              "steps, peak %d nodes down\n",
              setup.failures.events.size(), setup.failures.max_down);

  serve::ServeOptions options = free_run("FCFS+EASY");
  options.faults.trace = &setup.failures;
  options.faults.recovery.policy = fault::RecoveryPolicy::kCheckpointRestart;
  options.feed_restarts_from_start = true;  // the generator is replayable
  const std::string path = ctx.scratch + "/serve.journal";

  const ServeRun base = serve_once(setup.plan.config, options);
  print_run("unjournaled serve", base);
  account(report, base.report, kResilientJobs);
  const auto check = [&](const JournaledRun& j, const char* what) {
    account(report, j.run.report, kResilientJobs);
    const std::string w = what;
    gate(report, j.run.report.schedule_fnv == base.report.schedule_fnv,
         w + " journaled fingerprint equals the unjournaled one");
    gate(report, j.restart.report.schedule_fnv == base.report.schedule_fnv,
         w + " restarted fingerprint equals the unjournaled one");
    gate(report, j.restart.report.recovered &&
                     j.restart.report.completed == j.run.report.completed,
         w + " restart recovered every completed job");
    gate(report, j.run.report.requeued == j.run.report.killed &&
                     j.run.report.killed > 0,
         w + " every killed job was requeued (" +
             std::to_string(j.run.report.killed) + " kills)");
  };

  if (!ctx.trace) {
    std::size_t completed = 0;
    const Repetitions reps = repeat_within(ctx.seconds, [&](SpeedSampler& s) {
      const int span = ctx.spans->open("serve_resilient.journaled");
      const JournaledRun j =
          journaled(path, setup.plan, options, nullptr, nullptr, &s);
      ctx.spans->close(span);
      print_run("journaled serve", j.run);
      std::printf("restart: recovery %.3f s (journal open %.3f s, replay "
                  "%.3f s)\n",
                  j.recovery, j.open, j.restart.report.recovery_replay_seconds);
      check(j, "plain");
      completed = j.run.report.completed;
      return j.run.wall + j.recovery;
    });
    std::filesystem::remove(path);
    emit_end_to_end(report, setup_time, reps, static_cast<double>(completed));
    return;
  }

  LayerReport layers;
  layers.set("workload.gen_s", setup_time.seconds - setup.fault_gen_s);
  layers.set("fault.gen_s", setup.fault_gen_s);
  layers.set("workload.offered_load", setup.plan.offered_load);
  const JournaledRun plain = journaled(path, setup.plan, options);
  check(plain, "plain");
  set_latency(layers, plain.run.report);
  layers.set("serve.recovery_s", plain.recovery);
  layers.set("serve.journal_s", plain.run.wall - base.wall);

  CoreTrace core;
  Tally poll;
  const int span = ctx.spans->open("serve_resilient.traced");
  const JournaledRun traced = journaled(path, setup.plan, options, &core, &poll);
  ctx.spans->close(span);
  std::filesystem::remove(path);
  check(traced, "traced");
  print_run("traced journaled serve", traced.run);

  const serve::ServeReport& r = traced.run.report;
  const double traced_wall = traced.run.wall + traced.recovery;
  const double plain_wall = plain.run.wall + plain.recovery;
  layers.add_core(core);
  layers.set("sim.kernel_self_s", traced.run.wall + traced.restart.wall -
                                      core.seconds() - poll.seconds);
  layers.set("sim.rounds", static_cast<double>(r.decisions));
  layers.set("workload.jobs", static_cast<double>(r.completed));
  layers.set("serve.feed_poll_s", poll.seconds);
  layers.set("serve.decisions", static_cast<double>(r.decisions));
  layers.set("serve.peak_admission_queue",
             static_cast<double>(r.peak_admission_queue));
  layers.set("serve.journal_appends", static_cast<double>(r.journal_appends));
  layers.set("serve.journal_bytes", static_cast<double>(traced.journal_bytes));
  layers.set("serve.journal_open_s", traced.open);
  layers.set("serve.replay_s", traced.restart.report.recovery_replay_seconds);
  layers.set("serve.replayed_decisions",
             static_cast<double>(traced.restart.report.replayed_decisions));
  layers.set("fault.killed", static_cast<double>(r.killed));
  layers.set("fault.requeued", static_cast<double>(r.requeued));
  layers.set("fault.capacity_events", static_cast<double>(r.capacity_events));
  layers.set("fault.wasted_node_s", r.wasted_node_seconds);
  layers.finish(report, traced_wall, plain_wall);
}

}  // namespace perfbench
