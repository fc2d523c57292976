// Bounded-memory simulation parity: simulate_stream + StreamingAggregator
// must reproduce the batch pipeline bit-for-bit — every schedule
// fingerprint of the golden grid, every metric run_one reports, with and
// without fault injection — while touching only a bounded live window.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/factory.h"
#include "eval/experiment.h"
#include "fault/fault.h"
#include "metrics/objectives.h"
#include "metrics/resilience.h"
#include "metrics/streaming.h"
#include "sim/simulator.h"
#include "sim/streaming.h"
#include "test_support.h"
#include "workload/ctc_model.h"
#include "workload/job_source.h"
#include "workload/transforms.h"

namespace jsched {
namespace {

constexpr int kMachineNodes = 256;
constexpr std::size_t kJobs = 700;
constexpr std::uint64_t kSeed = 1999;

struct StreamRun {
  sim::StreamStats stats;
  metrics::StreamedMetrics m;
};

StreamRun run_streaming(const core::AlgorithmSpec& spec,
                        const workload::Workload& w, int nodes,
                        const fault::FaultOptions& faults = {}) {
  const sim::Machine machine{nodes};
  auto scheduler = core::make_scheduler(spec);
  workload::WorkloadSource source(w);
  metrics::StreamingAggregator aggregator(machine.nodes);
  sim::StreamOptions options;
  options.faults = faults;
  StreamRun r;
  r.stats =
      sim::simulate_stream(machine, *scheduler, source, aggregator, options);
  r.m = aggregator.finish();
  return r;
}

/// The workload every golden fingerprint is pinned on.
const workload::Workload& golden_workload() {
  static const workload::Workload w = [] {
    workload::CtcModelParams params;
    params.job_count = kJobs;
    return workload::trim_to_machine(workload::generate_ctc(params, kSeed),
                                     kMachineNodes);
  }();
  return w;
}

std::vector<core::AlgorithmSpec> golden_grid() {
  std::vector<core::AlgorithmSpec> specs;
  for (const core::WeightKind weight :
       {core::WeightKind::kUnit, core::WeightKind::kEstimatedArea}) {
    for (const core::AlgorithmSpec& s : core::paper_grid(weight)) {
      specs.push_back(s);
    }
  }
  for (const core::OrderKind order :
       {core::OrderKind::kFcfs, core::OrderKind::kSmartFfia}) {
    core::AlgorithmSpec spec;
    spec.order = order;
    spec.dispatch = core::DispatchKind::kConservative;
    spec.conservative.full_compression = true;
    specs.push_back(spec);
  }
  return specs;
}

TEST(StreamingSimTest, GoldenGridBitIdenticalToBatch) {
  const workload::Workload& w = golden_workload();
  for (const core::AlgorithmSpec& spec : golden_grid()) {
    SCOPED_TRACE(spec.display_name());
    const sim::Schedule batch = test::run(spec, w, kMachineNodes);
    const StreamRun streamed = run_streaming(spec, w, kMachineNodes);

    // The bit-identity witness: same fingerprint = same schedule.
    EXPECT_EQ(streamed.m.schedule_fnv, sim::schedule_fingerprint(batch));

    // Every metric run_one reports, compared exactly (not approximately):
    // the streaming aggregator performs the identical float additions in
    // the identical order.
    EXPECT_EQ(streamed.m.jobs, batch.size());
    EXPECT_EQ(streamed.m.art, metrics::average_response_time(batch));
    EXPECT_EQ(streamed.m.awrt, metrics::average_weighted_response_time(batch));
    EXPECT_EQ(streamed.m.wait, metrics::average_wait_time(batch));
    EXPECT_EQ(streamed.m.makespan, batch.makespan());
    EXPECT_EQ(streamed.m.utilization, metrics::utilization(batch));
    EXPECT_EQ(streamed.stats.max_queue_length, batch.max_queue_length);

    const metrics::ResilienceReport res = metrics::resilience(batch, w);
    EXPECT_EQ(streamed.m.resilience.executed_node_seconds,
              res.executed_node_seconds);
    EXPECT_EQ(streamed.m.resilience.useful_node_seconds,
              res.useful_node_seconds);
    EXPECT_EQ(streamed.m.resilience.goodput_fraction, res.goodput_fraction);
    EXPECT_EQ(streamed.m.resilience.availability, res.availability);

    // The memory claim: the live window stayed far below the workload.
    EXPECT_GT(streamed.stats.peak_live_jobs, 0u);
    EXPECT_LT(streamed.stats.peak_live_jobs, w.size());
  }
}

TEST(StreamingSimTest, FaultInjectionParity) {
  const workload::Workload& w = golden_workload();
  // A trace with two outages deep enough to kill running jobs.
  const fault::FailureTrace outages = fault::make_failure_trace(
      {{50'000, -200}, {120'000, +200}, {400'000, -128}, {500'000, +128}},
      kMachineNodes);
  for (const fault::RecoveryPolicy policy :
       {fault::RecoveryPolicy::kRequeueFromScratch,
        fault::RecoveryPolicy::kCheckpointRestart}) {
    fault::FaultOptions faults;
    faults.trace = &outages;
    faults.recovery.policy = policy;
    faults.recovery.checkpoint_interval = 1800;
    faults.recovery.restart_overhead = 60;

    for (const char* name : {"FCFS+EASY", "FCFS+CONS"}) {
      SCOPED_TRACE(name);
      core::AlgorithmSpec spec;
      spec.dispatch = std::string(name) == "FCFS+EASY"
                          ? core::DispatchKind::kEasy
                          : core::DispatchKind::kConservative;

      const sim::Machine machine{kMachineNodes};
      auto scheduler = core::make_scheduler(spec);
      sim::SimOptions sim_options;
      sim_options.faults = faults;
      const sim::Schedule batch =
          sim::simulate(machine, *scheduler, w, sim_options);
      ASSERT_FALSE(batch.attempts.empty());  // the trace actually killed

      const StreamRun streamed =
          run_streaming(spec, w, kMachineNodes, faults);
      EXPECT_EQ(streamed.m.schedule_fnv, sim::schedule_fingerprint(batch));
      EXPECT_EQ(streamed.m.resilience.kills, batch.attempts.size());

      const metrics::ResilienceReport res = metrics::resilience(batch, w);
      EXPECT_EQ(streamed.m.resilience.executed_node_seconds,
                res.executed_node_seconds);
      EXPECT_EQ(streamed.m.resilience.wasted_node_seconds,
                res.wasted_node_seconds);
      EXPECT_EQ(streamed.m.resilience.jobs_hit, res.jobs_hit);
      EXPECT_EQ(streamed.m.resilience.max_resubmissions,
                res.max_resubmissions);
      EXPECT_EQ(streamed.m.resilience.availability, res.availability);
      EXPECT_EQ(streamed.m.resilience.availability_weighted_utilization,
                res.availability_weighted_utilization);
    }
  }
}

TEST(StreamingSimTest, RunStreamedMatchesBatchRunOne) {
  const workload::Workload& w = golden_workload();
  const sim::Machine machine{kMachineNodes};
  for (const core::DispatchKind dispatch :
       {core::DispatchKind::kEasy, core::DispatchKind::kConservative}) {
    core::AlgorithmSpec spec;
    spec.dispatch = dispatch;
    const eval::RunResult batch = eval::run_one(machine, spec, w, {});
    workload::WorkloadSource source(w);
    const eval::RunResult streamed =
        eval::run_streamed(machine, spec, source, {});

    EXPECT_EQ(streamed.jobs, batch.jobs);
    EXPECT_EQ(streamed.schedule_fnv, batch.schedule_fnv);
    EXPECT_EQ(streamed.art, batch.art);
    EXPECT_EQ(streamed.awrt, batch.awrt);
    EXPECT_EQ(streamed.wait, batch.wait);
    EXPECT_EQ(streamed.makespan, batch.makespan);
    EXPECT_EQ(streamed.utilization, batch.utilization);
    EXPECT_EQ(streamed.max_queue_length, batch.max_queue_length);
    EXPECT_EQ(streamed.goodput_node_seconds, batch.goodput_node_seconds);
    EXPECT_EQ(streamed.wasted_node_seconds, batch.wasted_node_seconds);
    EXPECT_EQ(streamed.goodput_fraction, batch.goodput_fraction);
    EXPECT_EQ(streamed.availability, batch.availability);
    EXPECT_EQ(streamed.availability_weighted_utilization,
              batch.availability_weighted_utilization);
    EXPECT_EQ(streamed.kills, batch.kills);
    EXPECT_EQ(streamed.jobs_hit, batch.jobs_hit);
    EXPECT_EQ(streamed.scheduler_name, batch.scheduler_name);
  }
}

TEST(StreamingSimTest, RunStreamedConsumesARawSource) {
  // The O(1)-RSS entry point: generator straight into the simulator, no
  // Workload anywhere. Must equal the batch result over the materialized
  // stream.
  workload::CtcModelParams params;
  params.job_count = 400;
  params.machine_nodes = kMachineNodes;
  const sim::Machine machine{kMachineNodes};
  core::AlgorithmSpec spec;
  spec.dispatch = core::DispatchKind::kEasy;

  workload::CtcJobSource source(params, 7);
  const eval::RunResult streamed =
      eval::run_streamed(machine, spec, source, {});

  const workload::Workload w = workload::generate_ctc(params, 7);
  const eval::RunResult batch = eval::run_one(machine, spec, w, {});
  EXPECT_EQ(streamed.schedule_fnv, batch.schedule_fnv);
  EXPECT_EQ(streamed.art, batch.art);
  EXPECT_EQ(streamed.jobs, batch.jobs);
}

/// A source violating the stream contract on purpose.
class BrokenSource final : public workload::JobSource {
 public:
  explicit BrokenSource(std::vector<Job> jobs) : jobs_(std::move(jobs)) {}
  bool next(Job& out) override {
    if (pos_ == jobs_.size()) return false;
    out = jobs_[pos_++];
    return true;
  }
  const std::string& name() const noexcept override { return name_; }

 private:
  std::vector<Job> jobs_;
  std::size_t pos_ = 0;
  std::string name_ = "broken";
};

Job raw_job(JobId id, Time submit, int nodes, Duration runtime) {
  Job j;
  j.id = id;
  j.submit = submit;
  j.nodes = nodes;
  j.runtime = runtime;
  j.estimate = runtime;
  return j;
}

TEST(StreamingSimTest, RejectsContractViolatingSources) {
  const sim::Machine machine{16};
  core::AlgorithmSpec spec;
  const auto expect_rejected = [&](std::vector<Job> jobs) {
    BrokenSource source(std::move(jobs));
    auto scheduler = core::make_scheduler(spec);
    metrics::StreamingAggregator aggregator(machine.nodes);
    EXPECT_THROW(
        sim::simulate_stream(machine, *scheduler, source, aggregator, {}),
        std::invalid_argument);
  };
  // Non-dense ids.
  expect_rejected({raw_job(0, 0, 1, 10), raw_job(2, 5, 1, 10)});
  // Decreasing submits.
  expect_rejected({raw_job(0, 10, 1, 10), raw_job(1, 5, 1, 10)});
  // Invalid fields.
  expect_rejected({raw_job(0, 0, 0, 10)});
  // Wider than the machine (the batch path's trim_to_machine error).
  expect_rejected({raw_job(0, 0, 17, 10)});
}

TEST(StreamingSimTest, EmptyStreamYieldsZeroStatsAndFinishThrows) {
  const sim::Machine machine{16};
  core::AlgorithmSpec spec;
  auto scheduler = core::make_scheduler(spec);
  BrokenSource source({});
  metrics::StreamingAggregator aggregator(machine.nodes);
  const sim::StreamStats stats =
      sim::simulate_stream(machine, *scheduler, source, aggregator, {});
  EXPECT_EQ(stats.jobs, 0u);
  EXPECT_EQ(stats.makespan, 0);
  EXPECT_THROW(aggregator.finish(), std::invalid_argument);
}

TEST(StreamingSimTest, SmallMixedWorkloadAllSchedulers) {
  // Cheap cross-check on a second workload shape for every grid spec.
  const workload::Workload w = test::small_mixed_workload();
  for (const core::AlgorithmSpec& spec : core::paper_grid(core::WeightKind::kUnit)) {
    SCOPED_TRACE(spec.display_name());
    const sim::Schedule batch = test::run(spec, w, 16);
    const StreamRun streamed = run_streaming(spec, w, 16);
    EXPECT_EQ(streamed.m.schedule_fnv, sim::schedule_fingerprint(batch));
  }
}

}  // namespace
}  // namespace jsched
