// Fault-injection subsystem: trace construction, the stochastic failure
// model, simulator kill/recovery semantics (hand-computed scenarios for
// both recovery policies), resilience accounting, and determinism of
// fault-injected evaluation across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/factory.h"
#include "core/phased_scheduler.h"
#include "eval/experiment.h"
#include "fault/failure_model.h"
#include "fault/fault.h"
#include "metrics/resilience.h"
#include "serve/daemon.h"
#include "serve/feed.h"
#include "sim/simulator.h"
#include "sim/streaming.h"
#include "test_support.h"
#include "workload/job_source.h"

namespace jsched {
namespace {

using fault::FailureEvent;
using fault::FailureTrace;
using fault::FaultOptions;
using fault::RecoveryOptions;
using fault::RecoveryPolicy;

sim::Schedule run_with_faults(const core::AlgorithmSpec& spec,
                              const workload::Workload& w, int nodes,
                              const FailureTrace& trace,
                              const RecoveryOptions& recovery = {}) {
  sim::Machine m;
  m.nodes = nodes;
  auto scheduler = core::make_scheduler(spec);
  sim::SimOptions options;
  options.faults.trace = &trace;
  options.faults.recovery = recovery;
  return sim::simulate(m, *scheduler, w, options);
}

// --- trace construction -----------------------------------------------------

TEST(FaultTrace, SortsCoalescesAndValidates) {
  const FailureTrace t = fault::make_failure_trace(
      {{50, +1}, {10, -1}, {10, -1}, {50, +1}, {30, +2}, {30, -2}}, 4);
  // The zero-sum instant at 30 vanishes; the two instants coalesce.
  ASSERT_EQ(t.events.size(), 2u);
  EXPECT_EQ(t.events[0], (FailureEvent{10, -2}));
  EXPECT_EQ(t.events[1], (FailureEvent{50, +2}));
  EXPECT_EQ(t.max_down, 2);
  EXPECT_EQ(t.machine_nodes, 4);
}

TEST(FaultTrace, RejectsInvalidInput) {
  EXPECT_THROW(fault::make_failure_trace({{0, -1}}, 0), std::invalid_argument);
  EXPECT_THROW(fault::make_failure_trace({{-1, -1}}, 4), std::invalid_argument);
  EXPECT_THROW(fault::make_failure_trace({{5, 0}}, 4), std::invalid_argument);
  // More nodes down than the machine has.
  EXPECT_THROW(fault::make_failure_trace({{5, -5}}, 4), std::invalid_argument);
  // Repair without a preceding failure.
  EXPECT_THROW(fault::make_failure_trace({{5, +1}}, 4), std::invalid_argument);
}

TEST(FaultTrace, NonEmptyTraceActivatesFaultOptions) {
  const FailureTrace trace =
      fault::make_failure_trace({{10, -1}, {20, +1}}, 8);
  EXPECT_EQ(trace.events.size(), 2u);
  FaultOptions options;
  options.trace = &trace;
  EXPECT_TRUE(options.active());
  EXPECT_FALSE(FaultOptions{}.active());
}

// --- stochastic failure model -----------------------------------------------

TEST(FaultModel, DeterministicInSeed) {
  fault::FailureModelParams params;
  params.nodes = 8;
  params.horizon = 30 * kDay;
  params.mtbf = 5.0 * static_cast<double>(kDay);
  params.mttr = 4.0 * static_cast<double>(kHour);
  const FailureTrace a = fault::generate_failures(params, 42);
  const FailureTrace b = fault::generate_failures(params, 42);
  const FailureTrace c = fault::generate_failures(params, 43);
  EXPECT_EQ(a.events, b.events);
  EXPECT_NE(a.events, c.events);
  EXPECT_FALSE(a.empty());
}

TEST(FaultModel, TraceShapeIsSane) {
  fault::FailureModelParams params;
  params.nodes = 8;
  params.horizon = 60 * kDay;
  params.mtbf = 3.0 * static_cast<double>(kDay);
  params.mttr = 6.0 * static_cast<double>(kHour);
  params.uptime_dist = fault::FailureDistribution::kWeibull;
  params.uptime_shape = 0.7;
  params.repair_dist = fault::FailureDistribution::kWeibull;
  params.repair_shape = 2.0;
  const FailureTrace t = fault::generate_failures(params, 7);
  ASSERT_FALSE(t.empty());
  EXPECT_LE(t.max_down, params.nodes);
  int down = 0;
  Time prev = -1;
  int failures = 0;
  for (const FailureEvent& e : t.events) {
    EXPECT_GT(e.t, prev);  // strictly increasing after coalescing
    prev = e.t;
    down -= e.delta;
    if (e.delta < 0) failures -= e.delta;
    EXPECT_GE(down, 0);
    EXPECT_LE(down, params.nodes);
  }
  EXPECT_EQ(down, 0) << "every failure must eventually be repaired";
  // ~8 nodes * 60d / 3d MTBF = ~160 expected failures; allow a wide band.
  EXPECT_GT(failures, 40);
  EXPECT_LT(failures, 640);
}

TEST(FaultModel, RejectsBadParams) {
  fault::FailureModelParams params;
  params.nodes = 0;
  EXPECT_THROW(fault::generate_failures(params, 1), std::invalid_argument);
  params.nodes = 4;
  params.mtbf = 0.0;
  EXPECT_THROW(fault::generate_failures(params, 1), std::invalid_argument);
}

// --- hand-computed recovery scenarios ---------------------------------------

// 3-node machine, FCFS. A(2x100) and B(1x200) start at 0; at t=40 two
// nodes fail, killing first B (tie on start time, larger id) then A; both
// requeue from scratch. B restarts alone at 40 on the surviving node; the
// failed nodes return at 140 and A restarts. B ends 40+200=240, A ends
// 140+100=240.
TEST(FaultSim, HandComputedRequeueScenario) {
  const workload::Workload w = test::make_workload({
      test::make_job(0, 2, 100),  // id 0 = A
      test::make_job(0, 1, 200),  // id 1 = B
  });
  const FailureTrace trace =
      fault::make_failure_trace({{40, -2}, {140, +2}}, 3);
  const sim::Schedule s =
      run_with_faults(core::AlgorithmSpec{}, w, 3, trace,
                      {RecoveryPolicy::kRequeueFromScratch, kHour, 0});

  EXPECT_EQ(s[0].start, 140);
  EXPECT_EQ(s[0].end, 240);
  EXPECT_EQ(s[0].submit, 0) << "response time keeps the original submit";
  EXPECT_EQ(s[1].start, 40);
  EXPECT_EQ(s[1].end, 240);

  ASSERT_EQ(s.attempts.size(), 2u);
  // Kill order: B first (equal start, larger id loses), then A.
  EXPECT_EQ(s.attempts[0].id, 1u);
  EXPECT_EQ(s.attempts[0].start, 0);
  EXPECT_EQ(s.attempts[0].end, 40);
  EXPECT_EQ(s.attempts[0].saved, 0);
  EXPECT_EQ(s.attempts[1].id, 0u);
  EXPECT_EQ(s.attempts[1].lost(), 40);

  ASSERT_EQ(s.capacity_events.size(), 2u);
  EXPECT_EQ(s.capacity_events[0], (std::pair<Time, int>{40, 1}));
  EXPECT_EQ(s.capacity_events[1], (std::pair<Time, int>{140, 3}));

  const metrics::ResilienceReport r = metrics::resilience(s, w);
  EXPECT_DOUBLE_EQ(r.executed_node_seconds, 520.0);  // 280 (A) + 240 (B)
  EXPECT_DOUBLE_EQ(r.useful_node_seconds, 400.0);    // 200 + 200
  EXPECT_DOUBLE_EQ(r.wasted_node_seconds, 120.0);    // 2*40 + 1*40
  EXPECT_DOUBLE_EQ(r.goodput_fraction, 400.0 / 520.0);
  EXPECT_EQ(r.kills, 2u);
  EXPECT_EQ(r.jobs_hit, 2u);
  EXPECT_EQ(r.max_resubmissions, 1u);
  // Capacity 3 over [0,40), 1 over [40,140), 3 over [140,240):
  // 120+100+300 = 520 available node-seconds of 720 total.
  EXPECT_DOUBLE_EQ(r.availability, 520.0 / 720.0);
  // Every available node-second was used: perfectly packed recovery.
  EXPECT_DOUBLE_EQ(r.availability_weighted_utilization, 1.0);
}

/// Collects what simulate_stream emits, for comparison with a Schedule.
class CollectingSink final : public sim::RecordSink {
 public:
  void on_record(JobId, const sim::JobRecord& record, const Job&) override {
    records.push_back(record);
  }
  void on_attempt(const sim::AttemptRecord& attempt) override {
    attempts.push_back(attempt);
  }
  std::vector<sim::JobRecord> records;
  std::vector<sim::AttemptRecord> attempts;
};

// 2-node machine, FCFS. A and B (1x100 each) start at 0; at t=10 both
// nodes fail, killing B (equal start, larger id) then A, which re-queue in
// that order. One node returns at 20 and B restarts; the other returns at
// 30 and A restarts. When a node fails again at 40, A is the victim: it
// started last, although its id is smaller. A restarts at 50 and ends at
// 150; B ends at 20+100=120. The streaming simulator and the daemon run
// the same kernel and must reproduce the schedule and its kill order.
TEST(FaultSim, LatestStartIsKilledBeforeLargerId) {
  const workload::Workload w = test::make_workload({
      test::make_job(0, 1, 100),  // id 0 = A
      test::make_job(0, 1, 100),  // id 1 = B
  });
  const FailureTrace trace = fault::make_failure_trace(
      {{10, -2}, {20, +1}, {30, +1}, {40, -1}, {50, +1}}, 2);
  const sim::Schedule s = run_with_faults(core::AlgorithmSpec{}, w, 2, trace);

  EXPECT_EQ(s[0].start, 50);
  EXPECT_EQ(s[0].end, 150);
  EXPECT_EQ(s[1].start, 20);
  EXPECT_EQ(s[1].end, 120);
  ASSERT_EQ(s.attempts.size(), 3u);
  EXPECT_EQ(s.attempts[0].id, 1u);
  EXPECT_EQ(s.attempts[1].id, 0u);
  EXPECT_EQ(s.attempts[2].id, 0u) << "the later start (30, not 20) loses";
  EXPECT_EQ(s.attempts[2].start, 30);
  EXPECT_EQ(s.attempts[2].end, 40);

  sim::Machine m;
  m.nodes = 2;
  FaultOptions faults;
  faults.trace = &trace;

  auto scheduler = core::make_scheduler(core::AlgorithmSpec{});
  workload::WorkloadSource source(w);
  CollectingSink sink;
  sim::StreamOptions stream_options;
  stream_options.faults = faults;
  sim::simulate_stream(m, *scheduler, source, sink, stream_options);
  ASSERT_EQ(sink.records.size(), s.size());
  for (JobId id = 0; id < s.size(); ++id) {
    EXPECT_EQ(sink.records[id].start, s[id].start);
    EXPECT_EQ(sink.records[id].end, s[id].end);
  }
  ASSERT_EQ(sink.attempts.size(), s.attempts.size());
  for (std::size_t i = 0; i < s.attempts.size(); ++i) {
    EXPECT_EQ(sink.attempts[i].id, s.attempts[i].id);
    EXPECT_EQ(sink.attempts[i].start, s.attempts[i].start);
    EXPECT_EQ(sink.attempts[i].end, s.attempts[i].end);
  }

  workload::WorkloadSource served_source(w);
  serve::JobSourceFeed feed(served_source);
  serve::ServeOptions options;
  options.machine = m;
  options.faults = faults;
  const serve::ServeReport served = serve::serve(feed, options);
  EXPECT_EQ(served.killed, 3u);
  EXPECT_EQ(served.schedule_fnv, sim::schedule_fingerprint(s));
}

// Same machine, checkpointing every 30s of progress with 10s restart
// overhead. A(3x100) starts at 0; a node fails at 70 (progress 70 ->
// checkpoint at 60, 10s lost); the node returns at 80 and A resumes with
// 10s overhead + 40s remaining work.
TEST(FaultSim, HandComputedCheckpointScenario) {
  const workload::Workload w = test::make_workload({
      test::make_job(0, 3, 100),
  });
  const FailureTrace trace = fault::make_failure_trace({{70, -1}, {80, +1}}, 3);
  const sim::Schedule s =
      run_with_faults(core::AlgorithmSpec{}, w, 3, trace,
                      {RecoveryPolicy::kCheckpointRestart, 30, 10});

  EXPECT_EQ(s[0].start, 80);
  EXPECT_EQ(s[0].end, 130);  // 10 overhead + 40 remaining
  ASSERT_EQ(s.attempts.size(), 1u);
  EXPECT_EQ(s.attempts[0].saved, 60);
  EXPECT_EQ(s.attempts[0].lost(), 10);

  const metrics::ResilienceReport r = metrics::resilience(s, w);
  EXPECT_DOUBLE_EQ(r.executed_node_seconds, 360.0);  // 3 * (70 + 50)
  EXPECT_DOUBLE_EQ(r.useful_node_seconds, 300.0);
  // 10s of lost progress + 10s restart overhead, on 3 nodes.
  EXPECT_DOUBLE_EQ(r.wasted_node_seconds, 60.0);
}

// A second failure during the restart overhead: nothing new is
// checkpointed (overhead is not progress), the job keeps its remaining
// work and pays the overhead again.
TEST(FaultSim, KillDuringRestartOverheadSavesNothing) {
  const workload::Workload w = test::make_workload({
      test::make_job(0, 3, 100),
  });
  const FailureTrace trace = fault::make_failure_trace(
      {{40, -1}, {45, +1}, {50, -1}, {60, +1}}, 3);
  const sim::Schedule s =
      run_with_faults(core::AlgorithmSpec{}, w, 3, trace,
                      {RecoveryPolicy::kCheckpointRestart, 30, 10});

  ASSERT_EQ(s.attempts.size(), 2u);
  EXPECT_EQ(s.attempts[0].saved, 30);  // progress 40 -> one checkpoint
  EXPECT_EQ(s.attempts[1].start, 45);
  EXPECT_EQ(s.attempts[1].end, 50);
  EXPECT_EQ(s.attempts[1].saved, 0);  // killed 5s into the 10s overhead
  EXPECT_EQ(s[0].start, 60);
  EXPECT_EQ(s[0].end, 140);  // 10 overhead + 70 remaining

  const metrics::ResilienceReport r = metrics::resilience(s, w);
  EXPECT_DOUBLE_EQ(r.executed_node_seconds, 375.0);  // 3 * (40 + 5 + 80)
  EXPECT_DOUBLE_EQ(r.wasted_node_seconds, 75.0);
}

// A kill before the first checkpoint interval completes behaves exactly
// like requeue-from-scratch plus the restart overhead.
TEST(FaultSim, KillBeforeFirstCheckpointSavesNothing) {
  const workload::Workload w = test::make_workload({
      test::make_job(0, 3, 100),
  });
  const FailureTrace trace = fault::make_failure_trace({{20, -1}, {25, +1}}, 3);
  const sim::Schedule s =
      run_with_faults(core::AlgorithmSpec{}, w, 3, trace,
                      {RecoveryPolicy::kCheckpointRestart, 30, 10});
  ASSERT_EQ(s.attempts.size(), 1u);
  EXPECT_EQ(s.attempts[0].saved, 0);
  EXPECT_EQ(s[0].end, 25 + 10 + 100);
}

// Under checkpoint/restart with latest-start-first victims, an extra
// failure can lower the waste: it restarts a job, and the restarted
// attempt is the youngest victim when the next failure comes. This is why
// goodput in the committed fault sweep is not monotone in failure
// intensity (EXPERIMENTS.md). A and B are 1x10h on a 2-node machine,
// checkpointed hourly with 300 s restart overhead.
//  * rare: a node fails at 3000 and kills B (equal start, larger id) with
//    nothing checkpointed; B restarts at 3600 and pays the overhead:
//    3000 + 300 = 3300 node-seconds wasted by one kill.
//  * frequent: the same failure plus one at 2400, which kills B first; B
//    restarts at 2700, so the failure at 3000 kills its 300 s-old attempt
//    (all overhead, no progress) instead of A:
//    2400 + 300 + 300 = 3000 node-seconds wasted by two kills.
TEST(FaultSim, ExtraFailureCanLowerWasteUnderCheckpointing) {
  const workload::Workload w = test::make_workload({
      test::make_job(0, 1, 10 * kHour),  // id 0 = A
      test::make_job(0, 1, 10 * kHour),  // id 1 = B
  });
  const RecoveryOptions checkpointing{RecoveryPolicy::kCheckpointRestart,
                                      kHour, 5 * kMinute};
  const FailureTrace rare =
      fault::make_failure_trace({{3000, -1}, {3600, +1}}, 2);
  const FailureTrace frequent = fault::make_failure_trace(
      {{2400, -1}, {2700, +1}, {3000, -1}, {3600, +1}}, 2);
  const sim::Schedule sr =
      run_with_faults(core::AlgorithmSpec{}, w, 2, rare, checkpointing);
  const sim::Schedule sf =
      run_with_faults(core::AlgorithmSpec{}, w, 2, frequent, checkpointing);

  ASSERT_EQ(sr.attempts.size(), 1u);
  EXPECT_EQ(sr.attempts[0].id, 1u);
  EXPECT_EQ(sr.attempts[0].end, 3000);
  EXPECT_EQ(sr[1].start, 3600);
  EXPECT_EQ(sr[1].end, 3600 + 300 + 10 * kHour);

  ASSERT_EQ(sf.attempts.size(), 2u);
  EXPECT_EQ(sf.attempts[1].id, 1u);
  EXPECT_EQ(sf.attempts[1].start, 2700) << "the restart is the latest start";
  EXPECT_EQ(sf.attempts[1].saved, 0);
  EXPECT_EQ(sf[0].end, 10 * kHour) << "A is never hit";
  EXPECT_EQ(sf[1].end, 3600 + 300 + 10 * kHour);

  const metrics::ResilienceReport r = metrics::resilience(sr, w);
  const metrics::ResilienceReport f = metrics::resilience(sf, w);
  EXPECT_DOUBLE_EQ(r.useful_node_seconds, 72000.0);
  EXPECT_DOUBLE_EQ(f.useful_node_seconds, 72000.0);
  EXPECT_DOUBLE_EQ(r.executed_node_seconds, 75300.0);  // 36000+3000+36300
  EXPECT_DOUBLE_EQ(f.executed_node_seconds, 75000.0);  // +2400+300+36300
  EXPECT_DOUBLE_EQ(r.wasted_node_seconds, 3300.0);
  EXPECT_DOUBLE_EQ(f.wasted_node_seconds, 3000.0);
  EXPECT_EQ(r.kills, 1u);
  EXPECT_EQ(f.kills, 2u);
  EXPECT_GT(f.goodput_fraction, r.goodput_fraction);
}

// A job completing at the exact instant of a failure has completed — the
// completion batch runs before the fault batch.
TEST(FaultSim, CompletionAtFailureInstantWins) {
  const workload::Workload w = test::make_workload({
      test::make_job(0, 3, 50),
  });
  const FailureTrace trace = fault::make_failure_trace({{50, -3}, {60, +3}}, 3);
  const sim::Schedule s = run_with_faults(core::AlgorithmSpec{}, w, 3, trace);
  EXPECT_TRUE(s.attempts.empty());
  EXPECT_EQ(s[0].end, 50);
  // The same-instant fault batch still runs (capacity drops to 0 at 50),
  // but the simulation ends with the last completion, so the repair at 60
  // is never replayed.
  ASSERT_EQ(s.capacity_events.size(), 1u);
  EXPECT_EQ(s.capacity_events[0], (std::pair<Time, int>{50, 0}));
}

TEST(FaultSim, MismatchedTraceThrows) {
  const workload::Workload w = test::make_workload({test::make_job(0, 1, 10)});
  const FailureTrace trace = fault::make_failure_trace({{5, -1}, {6, +1}}, 8);
  EXPECT_THROW(run_with_faults(core::AlgorithmSpec{}, w, 4, trace),
               std::logic_error);
}

TEST(FaultSim, BadRecoveryOptionsThrow) {
  RecoveryOptions r;
  r.policy = RecoveryPolicy::kCheckpointRestart;
  r.checkpoint_interval = 0;
  EXPECT_THROW(r.validate(), std::invalid_argument);
  r.checkpoint_interval = 10;
  r.restart_overhead = -1;
  EXPECT_THROW(r.validate(), std::invalid_argument);
}

// --- every scheduler of the paper grid under failures -----------------------

TEST(FaultSim, AllGridSchedulersSurviveFailures) {
  const workload::Workload w = test::small_mixed_workload();
  fault::FailureModelParams params;
  params.nodes = 16;
  params.horizon = 600;
  params.mtbf = 300.0;
  params.mttr = 60.0;
  const FailureTrace trace = fault::generate_failures(params, 11);
  ASSERT_FALSE(trace.empty());
  for (core::WeightKind weight :
       {core::WeightKind::kUnit, core::WeightKind::kEstimatedArea}) {
    for (const core::AlgorithmSpec& spec : core::paper_grid(weight)) {
      for (RecoveryPolicy policy : {RecoveryPolicy::kRequeueFromScratch,
                                    RecoveryPolicy::kCheckpointRestart}) {
        // validate=true (run_with_faults default SimOptions) checks the
        // capacity sweep and conservation for every produced schedule.
        const sim::Schedule s = run_with_faults(
            spec, w, 16, trace, {policy, 20, 5});
        for (JobId id = 0; id < s.size(); ++id) {
          EXPECT_NE(s[id].end, kTimeInfinity)
              << spec.display_name() << " lost job " << id;
        }
      }
    }
  }
}

TEST(FaultSim, PhasedSchedulerSurvivesFailuresAcrossFlips) {
  // Spread submissions across a day/night boundary (7h) so phase flips
  // happen while nodes are down; the flip re-delivers the outage to the
  // incoming dispatcher.
  std::vector<Job> jobs;
  for (int i = 0; i < 40; ++i) {
    jobs.push_back(test::make_job(i * 20 * kMinute, 1 + (i * 7) % 256,
                                  30 * kMinute, kHour));
  }
  const workload::Workload w = test::make_workload(std::move(jobs));
  fault::FailureModelParams params;
  params.nodes = 256;
  params.horizon = 2 * kDay;
  params.mtbf = 12.0 * static_cast<double>(kHour);
  params.mttr = 1.0 * static_cast<double>(kHour);
  const FailureTrace trace = fault::generate_failures(params, 3);
  ASSERT_FALSE(trace.empty());

  sim::Machine m;
  m.nodes = 256;
  auto scheduler = core::make_institution_b_combined();
  sim::SimOptions options;
  options.faults.trace = &trace;
  options.faults.recovery = {RecoveryPolicy::kCheckpointRestart, 10 * kMinute,
                             kMinute};
  const sim::Schedule s = sim::simulate(m, *scheduler, w, options);
  for (JobId id = 0; id < s.size(); ++id) {
    EXPECT_NE(s[id].end, kTimeInfinity);
  }
}

// --- opt-in bit-identity ----------------------------------------------------

TEST(FaultSim, InactiveFaultOptionsMatchFaultFreeFingerprint) {
  const workload::Workload w = test::small_mixed_workload();
  for (const core::AlgorithmSpec& spec :
       core::paper_grid(core::WeightKind::kUnit)) {
    const std::uint64_t baseline = test::run_fingerprint(spec, w);
    // Null trace and empty trace both skip the kernel's fault branch.
    sim::Machine m;
    m.nodes = 16;
    auto scheduler = core::make_scheduler(spec);
    sim::SimOptions options;
    const FailureTrace empty = fault::make_failure_trace({}, 16);
    options.faults.trace = &empty;
    const sim::Schedule s = sim::simulate(m, *scheduler, w, options);
    EXPECT_EQ(sim::schedule_fingerprint(s), baseline) << spec.display_name();
  }
}

TEST(FaultSim, TraceBeyondMakespanLeavesScheduleIdentical) {
  // Fault events after the last completion are never reached: the
  // schedule carries no capacity events and fingerprints identically.
  const workload::Workload w = test::small_mixed_workload();
  const core::AlgorithmSpec spec{};
  const std::uint64_t baseline = test::run_fingerprint(spec, w);
  const FailureTrace trace =
      fault::make_failure_trace({{1000000, -4}, {1000100, +4}}, 16);
  const sim::Schedule s = run_with_faults(spec, w, 16, trace);
  EXPECT_TRUE(s.capacity_events.empty());
  EXPECT_EQ(sim::schedule_fingerprint(s), baseline);
}

// --- eval integration: determinism across thread counts ---------------------

TEST(FaultParallelEval, GridIdenticalAcrossThreadCounts) {
  const workload::Workload w = test::small_mixed_workload();
  fault::FailureModelParams params;
  params.nodes = 16;
  params.horizon = 600;
  params.mtbf = 200.0;
  params.mttr = 50.0;
  const FailureTrace trace = fault::generate_failures(params, 5);
  sim::Machine m;
  m.nodes = 16;

  eval::ExperimentOptions serial;
  serial.measure_cpu = false;
  serial.threads = 1;
  serial.faults.trace = &trace;
  serial.faults.recovery = {RecoveryPolicy::kCheckpointRestart, 20, 5};
  eval::ExperimentOptions parallel = serial;
  parallel.threads = 4;

  const auto a = eval::run_grid(m, core::WeightKind::kUnit, w, serial);
  const auto b = eval::run_grid(m, core::WeightKind::kUnit, w, parallel);
  ASSERT_EQ(a.size(), b.size());
  bool any_faulted = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].schedule_fnv, b[i].schedule_fnv) << a[i].scheduler_name;
    EXPECT_DOUBLE_EQ(a[i].goodput_fraction, b[i].goodput_fraction);
    EXPECT_DOUBLE_EQ(a[i].availability, b[i].availability);
    any_faulted = any_faulted || a[i].kills > 0;
    EXPECT_LE(a[i].goodput_fraction, 1.0);
    EXPECT_GT(a[i].goodput_fraction, 0.0);
    EXPECT_LT(a[i].availability, 1.0);
  }
  EXPECT_TRUE(any_faulted) << "trace too mild to exercise recovery";
}

TEST(FaultParallelEval, FaultSweepProducesDegradationCurve) {
  const workload::Workload w = test::small_mixed_workload();
  sim::Machine m;
  m.nodes = 16;
  fault::FailureModelParams params;
  params.nodes = 16;
  params.horizon = 600;
  params.mtbf = 250.0;
  params.mttr = 40.0;
  const FailureTrace faulty = fault::generate_failures(params, 9);

  std::vector<eval::FaultSweepPoint> points(2);
  points[0].label = "no-faults";
  points[1].label = "faulty";
  points[1].faults.trace = &faulty;
  points[1].faults.recovery = {RecoveryPolicy::kRequeueFromScratch, kHour, 0};

  eval::ExperimentOptions options;
  options.measure_cpu = false;
  const auto sweep = eval::run_fault_sweep_outcomes(
      m, core::WeightKind::kUnit, w, points, options);
  ASSERT_EQ(sweep.size(), 2u);
  ASSERT_TRUE(sweep[0].all_ok());
  ASSERT_TRUE(sweep[1].all_ok());
  const auto fault_free = sweep[0].results();
  // Point 0 is fault-free: identical to a plain grid run.
  const auto plain = eval::run_grid(m, core::WeightKind::kUnit, w, options);
  ASSERT_EQ(fault_free.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(fault_free[i].schedule_fnv, plain[i].schedule_fnv);
    EXPECT_DOUBLE_EQ(fault_free[i].goodput_fraction, 1.0);
    EXPECT_DOUBLE_EQ(fault_free[i].availability, 1.0);
  }
  // Failures can only add work: goodput fraction degrades (or stays 1 if
  // the trace happened to miss every running job).
  for (const eval::RunResult& r : sweep[1].results()) {
    EXPECT_LE(r.goodput_fraction, 1.0);
  }
}

}  // namespace
}  // namespace jsched
