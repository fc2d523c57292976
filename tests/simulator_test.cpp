#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/factory.h"
#include "fault/fault.h"
#include "metrics/streaming.h"
#include "serve/daemon.h"
#include "serve/feed.h"
#include "sim/streaming.h"
#include "test_support.h"
#include "workload/job_source.h"

namespace jsched::sim {
namespace {

using test::make_job;

core::AlgorithmSpec fcfs() { return {}; }  // default spec is FCFS list

TEST(Simulator, SingleJobRunsImmediately) {
  // finalize() shifts the origin so the first submission lands at 0; the
  // second job's relative offset is preserved and it also starts on
  // arrival (the machine has room).
  const auto w = test::make_workload({make_job(10, 4, 100),
                                      make_job(20, 2, 30)});
  const Schedule s = test::run(fcfs(), w, 8);
  EXPECT_EQ(s[0].submit, 0);
  EXPECT_EQ(s[0].start, 0);
  EXPECT_EQ(s[0].end, 100);
  EXPECT_EQ(s[1].start, 10);
  EXPECT_EQ(s[1].end, 40);
  EXPECT_FALSE(s[0].cancelled);
}

TEST(Simulator, RejectsJobWiderThanMachine) {
  const auto w = test::make_workload({make_job(0, 9, 10)});
  EXPECT_THROW(test::run(fcfs(), w, 8), std::invalid_argument);
}

TEST(Simulator, RejectsInvalidMachine) {
  // simulate() calls Machine::validate() before touching the scheduler.
  const auto w = test::make_workload({make_job(0, 1, 10)});
  EXPECT_THROW(test::run(fcfs(), w, 0), std::invalid_argument);
  EXPECT_THROW(test::run(fcfs(), w, -4), std::invalid_argument);
}

TEST(Simulator, QueuesWhenMachineBusy) {
  const auto w = test::make_workload({
      make_job(0, 8, 100),
      make_job(1, 8, 50),
  });
  const Schedule s = test::run(fcfs(), w, 8);
  EXPECT_EQ(s[0].start, 0);
  EXPECT_EQ(s[1].start, 100);
  EXPECT_EQ(s[1].end, 150);
}

TEST(Simulator, ParallelJobsShareMachine) {
  const auto w = test::make_workload({
      make_job(0, 3, 100),
      make_job(0, 5, 100),
  });
  const Schedule s = test::run(fcfs(), w, 8);
  EXPECT_EQ(s[0].start, 0);
  EXPECT_EQ(s[1].start, 0);
}

TEST(Simulator, CancelsJobAtItsLimit) {
  const auto w = test::make_workload({make_job(0, 1, 100, 60)});
  const Schedule s = test::run(fcfs(), w, 8);
  EXPECT_TRUE(s[0].cancelled);
  EXPECT_EQ(s[0].end, 60);
}

TEST(Simulator, SchedulerSeesScrubbedRuntime) {
  // Submission has no runtime member at all — the on-line boundary is
  // enforced by the type. A scheduler materializing a Job from it gets
  // runtime scrubbed to 0, and the visible fields are intact.
  class Probe final : public Scheduler {
   public:
    std::string name() const override { return "probe"; }
    void reset(const Machine&) override {}
    void on_submit(const Submission& job, Time) override {
      saw_runtime = job.to_job().runtime;
      saw_estimate = job.estimate;
      pending.push_back(job.id);
    }
    void on_complete(JobId, Time) override {}
    void select_starts(Time, int, std::vector<JobId>& starts) override {
      starts = pending;
      pending.clear();
    }
    std::size_t queue_length() const override { return pending.size(); }
    Duration saw_runtime = -1;
    Duration saw_estimate = -1;
    std::vector<JobId> pending;
  };

  const auto w = test::make_workload({make_job(0, 1, 77, 100)});
  Machine m;
  m.nodes = 4;
  Probe probe;
  const Schedule s = simulate(m, probe, w);
  EXPECT_EQ(probe.saw_runtime, 0);
  EXPECT_EQ(probe.saw_estimate, 100);
  EXPECT_EQ(s[0].end - s[0].start, 77);  // ground truth still applies
}

/// Expects `run` to throw std::logic_error whose message names `what`: the
/// contract check itself fired, not some later consequence of skipping it.
template <typename Run>
void expect_logic_error(Run run, const std::string& what, const char* entry) {
  try {
    run();
    ADD_FAILURE() << entry << " did not throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << entry << ": " << e.what();
  }
}

/// Runs a fresh scheduler from `make` over `w` through every entry point of
/// the event kernel — simulate without and with an active failure trace,
/// simulate_stream, and serve — and expects each to throw the
/// std::logic_error naming `what`. The trace's only outage lies after every
/// job's submission, so it changes nothing before the contract breaks.
template <typename MakeScheduler>
void expect_contract_violation(const workload::Workload& w, int nodes,
                               MakeScheduler make, const std::string& what) {
  Machine m;
  m.nodes = nodes;
  expect_logic_error(
      [&] {
        auto scheduler = make();
        simulate(m, *scheduler, w);
      },
      what, "simulate");
  const fault::FailureTrace trace =
      fault::make_failure_trace({{100'000, -1}, {100'001, +1}}, nodes);
  expect_logic_error(
      [&] {
        SimOptions options;
        options.faults.trace = &trace;
        auto scheduler = make();
        simulate(m, *scheduler, w, options);
      },
      what, "simulate with an active failure trace");
  expect_logic_error(
      [&] {
        auto scheduler = make();
        workload::WorkloadSource source(w);
        metrics::StreamingAggregator aggregator(nodes);
        simulate_stream(m, *scheduler, source, aggregator);
      },
      what, "simulate_stream");
  expect_logic_error(
      [&] {
        std::vector<serve::SubmitRecord> records;
        for (const Job& j : w) {
          records.push_back(
              {j.submit, j.nodes, j.runtime, j.estimate, j.user});
        }
        test::ScriptFeed feed(records);
        serve::ServeOptions options;
        options.machine = m;
        options.scheduler_factory = [&](const core::AlgorithmSpec&) {
          return std::unique_ptr<Scheduler>(make());
        };
        serve::serve(feed, options);
      },
      what, "serve");
}

TEST(Simulator, ThrowsWhenSchedulerOversubscribes) {
  class Bad final : public Scheduler {
   public:
    std::string name() const override { return "bad"; }
    void reset(const Machine&) override {}
    void on_submit(const Submission& job, Time) override {
      pending.push_back(job.id);
    }
    void on_complete(JobId, Time) override {}
    void select_starts(Time, int, std::vector<JobId>& starts) override {
      starts = pending;  // starts everything regardless of capacity
      pending.clear();
    }
    std::size_t queue_length() const override { return pending.size(); }
    std::vector<JobId> pending;
  };

  const auto w = test::make_workload({make_job(0, 5, 10), make_job(0, 5, 10)});
  expect_contract_violation(
      w, 8, [] { return std::make_unique<Bad>(); }, "oversubscribed");
}

TEST(Simulator, ThrowsWhenSchedulerStarvesJobs) {
  class Lazy final : public Scheduler {
   public:
    std::string name() const override { return "lazy"; }
    void reset(const Machine&) override {}
    void on_submit(const Submission&, Time) override { ++queued; }
    void on_complete(JobId, Time) override {}
    void select_starts(Time, int, std::vector<JobId>& starts) override {
      starts.clear();
    }
    std::size_t queue_length() const override { return queued; }
    std::size_t queued = 0;
  };

  const auto w = test::make_workload({make_job(0, 1, 10)});
  expect_contract_violation(
      w, 8, [] { return std::make_unique<Lazy>(); }, "starved");
}

TEST(Simulator, ThrowsWhenSchedulerStartsTwice) {
  class Doubler final : public Scheduler {
   public:
    std::string name() const override { return "doubler"; }
    void reset(const Machine&) override {}
    void on_submit(const Submission& job, Time) override { id = job.id; }
    void on_complete(JobId, Time) override {}
    void select_starts(Time, int, std::vector<JobId>& starts) override {
      starts.clear();
      if (fired > 1) return;
      ++fired;
      starts.push_back(id);
    }
    std::size_t queue_length() const override { return 0; }
    JobId id = 0;
    int fired = 0;
  };

  const auto w = test::make_workload({make_job(0, 1, 10)});
  expect_contract_violation(
      w, 8, [] { return std::make_unique<Doubler>(); }, "twice");
}

TEST(Simulator, ThrowsWhenSchedulerStartsUnknownJob) {
  // Starts the job after the last one it was given: job 1 exists in the
  // workload but has not been submitted yet at t = 0.
  class Prescient final : public Scheduler {
   public:
    std::string name() const override { return "prescient"; }
    void reset(const Machine&) override {}
    void on_submit(const Submission& job, Time) override { last = job.id; }
    void on_complete(JobId, Time) override {}
    void select_starts(Time, int, std::vector<JobId>& starts) override {
      starts.clear();
      if (!fired) starts.push_back(last + 1);
      fired = true;
    }
    std::size_t queue_length() const override { return 0; }
    JobId last = 0;
    bool fired = false;
  };

  const auto w = test::make_workload({make_job(0, 1, 10), make_job(50, 1, 10)});
  expect_contract_violation(
      w, 8, [] { return std::make_unique<Prescient>(); }, "unknown job");
}

TEST(Simulator, MeasuresSchedulerCpuWhenAsked) {
  const auto w = test::small_mixed_workload();
  Machine m;
  m.nodes = 16;
  auto sched = core::make_scheduler(fcfs());
  SimOptions opt;
  opt.measure_scheduler_cpu = true;
  const Schedule s = simulate(m, *sched, w, opt);
  EXPECT_GE(s.scheduler_cpu_seconds, 0.0);
  EXPECT_LT(s.scheduler_cpu_seconds, 5.0);
}

TEST(Simulator, TracksMaxQueueLength) {
  const auto w = test::make_workload({
      make_job(0, 8, 1000),
      make_job(1, 8, 10),
      make_job(2, 8, 10),
      make_job(3, 8, 10),
  });
  const Schedule s = test::run(fcfs(), w, 8);
  EXPECT_EQ(s.max_queue_length, 3u);
}

TEST(Simulator, SimultaneousArrivalsKeepSubmissionOrder) {
  const auto w = test::make_workload({
      make_job(0, 8, 100),  // id 0
      make_job(0, 8, 100),  // id 1
  });
  const Schedule s = test::run(fcfs(), w, 8);
  EXPECT_LT(s[0].start, s[1].start);
}

TEST(Simulator, EmptyWorkloadYieldsEmptySchedule) {
  workload::Workload w;
  w.finalize();
  Machine m;
  m.nodes = 8;
  auto sched = core::make_scheduler(fcfs());
  const Schedule s = simulate(m, *sched, w);
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.makespan(), 0);
}

}  // namespace
}  // namespace jsched::sim
