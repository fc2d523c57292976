#include "metrics/objectives.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "test_support.h"

namespace jsched::metrics {
namespace {

using test::make_job;

sim::Machine machine(int nodes = 8) {
  sim::Machine m;
  m.nodes = nodes;
  return m;
}

/// Hand-built two-job schedule:
///   job 0: submit 0, start 10, end 110, 4 nodes (response 110, run 100)
///   job 1: submit 20, start 110, end 160, 2 nodes (response 140, run 50)
sim::Schedule two_job_schedule() {
  sim::Schedule s(machine(), 2, "hand");
  s.record(0) = {0, 10, 110, 4, false};
  s.record(1) = {20, 110, 160, 2, false};
  return s;
}

TEST(Objectives, AverageResponseTime) {
  EXPECT_DOUBLE_EQ(average_response_time(two_job_schedule()),
                   (110.0 + 140.0) / 2.0);
}

TEST(Objectives, AverageWaitTime) {
  EXPECT_DOUBLE_EQ(average_wait_time(two_job_schedule()),
                   (10.0 + 90.0) / 2.0);
}

TEST(Objectives, AverageWeightedResponseTime) {
  // weights: 4*100 = 400 and 2*50 = 100.
  EXPECT_DOUBLE_EQ(average_weighted_response_time(two_job_schedule()),
                   (400.0 * 110.0 + 100.0 * 140.0) / 2.0);
}

TEST(Objectives, WeightNormalizedVariant) {
  EXPECT_DOUBLE_EQ(weight_normalized_response_time(two_job_schedule()),
                   (400.0 * 110.0 + 100.0 * 140.0) / 500.0);
}

TEST(Objectives, WeightedAndUnweightedAgreeOnUnitJobs) {
  // 1-node, 1-second jobs: weight = 1 for every job, so AWRT == ART.
  sim::Schedule s(machine(), 2, "unit");
  s.record(0) = {0, 0, 1, 1, false};
  s.record(1) = {0, 1, 2, 1, false};
  EXPECT_DOUBLE_EQ(average_response_time(s),
                   average_weighted_response_time(s));
}

TEST(Objectives, BoundedSlowdown) {
  // job 0: response 110, run 100 -> 1.1; job 1: response 140, run 50 -> 2.8.
  EXPECT_DOUBLE_EQ(average_bounded_slowdown(two_job_schedule(), 10),
                   (1.1 + 2.8) / 2.0);
  // A tiny job's slowdown is bounded by tau.
  sim::Schedule s(machine(), 1, "tiny");
  s.record(0) = {0, 0, 1, 1, false};  // run 1, response 1
  EXPECT_DOUBLE_EQ(average_bounded_slowdown(s, 10), 1.0 / 10.0);
}

TEST(Objectives, MakespanAndUtilization) {
  const auto s = two_job_schedule();
  EXPECT_EQ(makespan(s), 160);
  // busy = 400 + 100 node-seconds over 8 * 160.
  EXPECT_DOUBLE_EQ(utilization(s), 500.0 / (8.0 * 160.0));
}

TEST(Objectives, IdleNodeSecondsWithinFrame) {
  const auto s = two_job_schedule();
  // Frame [0, 100): job 0 busy [10,100) with 4 nodes -> 360 busy.
  EXPECT_DOUBLE_EQ(idle_node_seconds(s, 0, 100), 8.0 * 100.0 - 360.0);
  // Frame fully idle.
  EXPECT_DOUBLE_EQ(idle_node_seconds(s, 200, 300), 800.0);
  EXPECT_THROW(idle_node_seconds(s, 100, 100), std::invalid_argument);
}

TEST(Objectives, EmptyScheduleThrows) {
  sim::Schedule s(machine(), 0, "empty");
  EXPECT_THROW(average_response_time(s), std::invalid_argument);
  EXPECT_THROW(average_weighted_response_time(s), std::invalid_argument);
}

TEST(Objectives, CancelledJobWeightUsesOccupiedTime) {
  // Cancelled at its 50 s limit while asking 2 nodes: weight 100.
  sim::Schedule s(machine(), 1, "cancel");
  s.record(0) = {0, 0, 50, 2, true};
  EXPECT_DOUBLE_EQ(average_weighted_response_time(s), 100.0 * 50.0);
}

TEST(Objectives, NamedObjectivesEvaluate) {
  const auto s = two_job_schedule();
  const Objective u = unweighted_objective();
  const Objective w = weighted_objective();
  EXPECT_EQ(u.name, "average response time");
  EXPECT_DOUBLE_EQ(u.cost(s), average_response_time(s));
  EXPECT_DOUBLE_EQ(w.cost(s), average_weighted_response_time(s));
  EXPECT_TRUE(u.minimize);
}

TEST(Objectives, FilteredResponseTimes) {
  const auto s = two_job_schedule();
  // Only job 0 (submitted at 0).
  auto only0 = [](JobId id, const sim::JobRecord&) { return id == 0; };
  EXPECT_DOUBLE_EQ(average_response_time_if(s, only0), 110.0);
  EXPECT_DOUBLE_EQ(average_weighted_response_time_if(s, only0),
                   400.0 * 110.0);
  // Nobody matches -> 0.
  auto none = [](JobId, const sim::JobRecord&) { return false; };
  EXPECT_DOUBLE_EQ(average_response_time_if(s, none), 0.0);
  // Everybody matches -> plain metric.
  auto all = [](JobId, const sim::JobRecord&) { return true; };
  EXPECT_DOUBLE_EQ(average_response_time_if(s, all),
                   average_response_time(s));
}

TEST(Objectives, ClassMetrics) {
  const auto w = test::make_workload([] {
    std::vector<Job> jobs;
    Job a = make_job(0, 1, 10);
    a.priority_class = 1;
    Job b = make_job(0, 1, 10);
    b.priority_class = 0;
    return std::vector<Job>{a, b};
  }());
  sim::Schedule s(machine(), 2, "cls");
  s.record(0) = {0, 0, 10, 1, false};
  s.record(1) = {0, 100, 110, 1, false};
  EXPECT_DOUBLE_EQ(class_average_response_time(s, w, 1), 10.0);
  EXPECT_DOUBLE_EQ(class_average_response_time(s, w, 0), 110.0);
  EXPECT_DOUBLE_EQ(class_average_response_time(s, w, 9), 0.0);
  EXPECT_DOUBLE_EQ(fraction_within(s, w, 1, 10), 1.0);
  EXPECT_DOUBLE_EQ(fraction_within(s, w, 0, 10), 0.0);
  EXPECT_DOUBLE_EQ(fraction_within(s, w, 9, 10), 1.0);  // empty class
}

}  // namespace
}  // namespace jsched::metrics
