// Scheduler CPU accounting (Tables 7/8), pinned through every way into the
// event kernel: simulate, simulate_stream, run_one and run_streamed. The
// kernel sums steady-clock brackets around the scheduler callbacks and
// scales the sum by the run's on-CPU share, so a callback that burns CPU is
// charged about that CPU, one that blocks is charged no more than the
// thread actually used, and an unmeasured run reports exactly 0 with the
// same schedule.
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/factory.h"
#include "eval/experiment.h"
#include "metrics/streaming.h"
#include "sim/simulator.h"
#include "sim/streaming.h"
#include "test_support.h"
#include "workload/job_source.h"

namespace jsched {
namespace {

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

constexpr int kStalledCalls = 10;
constexpr double kStallSeconds = 0.002;

enum class Stall { kNone, kBurn, kBlock };

core::AlgorithmSpec easy() {
  core::AlgorithmSpec spec;
  spec.dispatch = core::DispatchKind::kEasy;
  return spec;
}

/// FCFS+EASY whose first kStalledCalls select_starts calls each first spin
/// until this thread's CPU clock has advanced kStallSeconds (kBurn), or
/// sleep that long (kBlock).
class StallingScheduler final : public sim::Scheduler {
 public:
  explicit StallingScheduler(Stall stall)
      : inner_(core::make_scheduler(easy())), stall_(stall) {}

  std::string name() const override { return inner_->name(); }
  void reset(const sim::Machine& machine) override {
    inner_->reset(machine);
    stalls_left_ = kStalledCalls;
  }
  void on_submit(const Submission& job, Time now) override {
    inner_->on_submit(job, now);
  }
  void on_complete(JobId id, Time now) override {
    inner_->on_complete(id, now);
  }
  void select_starts(Time now, int free_nodes,
                     std::vector<JobId>& starts) override {
    if (stall_ != Stall::kNone && stalls_left_ > 0) {
      --stalls_left_;
      if (stall_ == Stall::kBurn) {
        const double until = thread_cpu_seconds() + kStallSeconds;
        while (thread_cpu_seconds() < until) {
        }
      } else {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(kStallSeconds));
      }
    }
    inner_->select_starts(now, free_nodes, starts);
  }
  Time next_wakeup(Time now) const override {
    return inner_->next_wakeup(now);
  }
  std::size_t queue_length() const override { return inner_->queue_length(); }

 private:
  std::unique_ptr<sim::Scheduler> inner_;
  Stall stall_;
  int stalls_left_ = 0;
};

const workload::Workload& jobs() {
  static const workload::Workload w = test::small_mixed_workload();
  return w;
}

sim::Machine machine() {
  sim::Machine m;
  m.nodes = 16;
  return m;
}

/// One call of an entry point: this thread's CPU over the whole call, and
/// what it reported as a RunResult.
struct Call {
  double thread_cpu = 0.0;
  eval::RunResult result;
};

template <typename Body>
Call measured(Body body) {
  const double before = thread_cpu_seconds();
  eval::RunResult result = body();
  return {thread_cpu_seconds() - before, std::move(result)};
}

/// The RunResult fields run_one fills from a simulation's output.
eval::RunResult as_result(const metrics::StreamedMetrics& m, double cpu,
                          std::size_t max_queue_length) {
  eval::RunResult r;
  r.jobs = m.jobs;
  r.art = m.art;
  r.awrt = m.awrt;
  r.wait = m.wait;
  r.makespan = static_cast<double>(m.makespan);
  r.utilization = m.utilization;
  r.scheduler_cpu_seconds = cpu;
  r.max_queue_length = max_queue_length;
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

eval::ExperimentOptions experiment_options(Stall stall, bool measure) {
  eval::ExperimentOptions options;
  options.measure_cpu = measure;
  options.scheduler_factory = [stall](const core::AlgorithmSpec&) {
    return std::unique_ptr<sim::Scheduler>(
        std::make_unique<StallingScheduler>(stall));
  };
  return options;
}

using Entry = std::function<Call(Stall, bool measure)>;

const std::vector<std::pair<std::string, Entry>>& entries() {
  static const std::vector<std::pair<std::string, Entry>> all = {
      {"simulate",
       [](Stall stall, bool measure) {
         return measured([&] {
           StallingScheduler scheduler(stall);
           sim::SimOptions options;
           options.measure_scheduler_cpu = measure;
           const sim::Schedule s =
               sim::simulate(machine(), scheduler, jobs(), options);
           return as_result(metrics::aggregate(s, jobs()).finish(),
                            s.scheduler_cpu_seconds, s.max_queue_length);
         });
       }},
      {"simulate_stream",
       [](Stall stall, bool measure) {
         return measured([&] {
           StallingScheduler scheduler(stall);
           workload::WorkloadSource source(jobs());
           metrics::StreamingAggregator aggregator(machine().nodes);
           sim::StreamOptions options;
           options.measure_scheduler_cpu = measure;
           const sim::StreamStats stats = sim::simulate_stream(
               machine(), scheduler, source, aggregator, options);
           return as_result(aggregator.finish(), stats.scheduler_cpu_seconds,
                            stats.max_queue_length);
         });
       }},
      {"run_one",
       [](Stall stall, bool measure) {
         return measured([&] {
           return eval::run_one(machine(), easy(), jobs(),
                                experiment_options(stall, measure));
         });
       }},
      {"run_streamed",
       [](Stall stall, bool measure) {
         return measured([&] {
           workload::WorkloadSource source(jobs());
           return eval::run_streamed(machine(), easy(), source,
                                     experiment_options(stall, measure));
         });
       }},
  };
  return all;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same_but_cpu(const eval::RunResult& a, const eval::RunResult& b,
                         const std::string& entry) {
  SCOPED_TRACE(entry);
  EXPECT_EQ(a.spec.order, b.spec.order);
  EXPECT_EQ(a.spec.dispatch, b.spec.dispatch);
  EXPECT_EQ(a.spec.weight, b.spec.weight);
  EXPECT_EQ(a.scheduler_name, b.scheduler_name);
  EXPECT_EQ(a.jobs, b.jobs);
  EXPECT_EQ(bits(a.art), bits(b.art));
  EXPECT_EQ(bits(a.awrt), bits(b.awrt));
  EXPECT_EQ(bits(a.wait), bits(b.wait));
  EXPECT_EQ(bits(a.makespan), bits(b.makespan));
  EXPECT_EQ(bits(a.utilization), bits(b.utilization));
  EXPECT_EQ(a.max_queue_length, b.max_queue_length);
  EXPECT_EQ(a.schedule_fnv, b.schedule_fnv);
  EXPECT_EQ(bits(a.goodput_node_seconds), bits(b.goodput_node_seconds));
  EXPECT_EQ(bits(a.wasted_node_seconds), bits(b.wasted_node_seconds));
  EXPECT_EQ(bits(a.goodput_fraction), bits(b.goodput_fraction));
  EXPECT_EQ(bits(a.availability), bits(b.availability));
  EXPECT_EQ(bits(a.availability_weighted_utilization),
            bits(b.availability_weighted_utilization));
  EXPECT_EQ(a.kills, b.kills);
  EXPECT_EQ(a.jobs_hit, b.jobs_hit);
}

TEST(SchedulerCpu, ChargesCpuBurnedInCallbacks) {
  // 10 x 2 ms of this thread's CPU inside select_starts; the slack below
  // 20 ms covers only preemption outside the callbacks, which lowers the
  // run's on-CPU share for every bracket alike.
  for (const auto& [name, entry] : entries()) {
    const Call run = entry(Stall::kBurn, true);
    EXPECT_GE(run.result.scheduler_cpu_seconds,
              0.8 * kStalledCalls * kStallSeconds)
        << name;
    EXPECT_LE(run.result.scheduler_cpu_seconds, run.thread_cpu) << name;
  }
}

TEST(SchedulerCpu, NeverChargesMoreThanTheThreadRan) {
  // 10 x 2 ms asleep inside select_starts: a bare wall-clock bracket would
  // charge at least 20 ms here, far above the CPU this thread used.
  for (const auto& [name, entry] : entries()) {
    const Call run = entry(Stall::kBlock, true);
    EXPECT_GE(run.result.scheduler_cpu_seconds, 0.0) << name;
    EXPECT_LE(run.result.scheduler_cpu_seconds, run.thread_cpu + 1e-6)
        << name;
  }
}

TEST(SchedulerCpu, UnmeasuredRunReportsZeroAndTheSameResults) {
  for (const auto& [name, entry] : entries()) {
    const Call on = entry(Stall::kNone, true);
    const Call off = entry(Stall::kNone, false);
    EXPECT_EQ(off.result.scheduler_cpu_seconds, 0.0) << name;
    expect_same_but_cpu(on.result, off.result, name);
  }
}

}  // namespace
}  // namespace jsched
