#include "sim/schedule.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "test_support.h"

namespace jsched::sim {
namespace {

using test::make_job;

Machine machine(int nodes) {
  Machine m;
  m.nodes = nodes;
  return m;
}

TEST(Schedule, RecordsRoundTrip) {
  Schedule s(machine(8), 2, "X");
  s.record(0) = {5, 10, 30, 4, false};
  EXPECT_EQ(s[0].wait(), 5);
  EXPECT_EQ(s[0].response(), 25);
  EXPECT_EQ(s.scheduler_name(), "X");
}

TEST(Schedule, MakespanIsLastCompletion) {
  Schedule s(machine(8), 2, "X");
  s.record(0) = {0, 0, 100, 1, false};
  s.record(1) = {0, 50, 80, 1, false};
  EXPECT_EQ(s.makespan(), 100);
}

class ValidateTest : public ::testing::Test {
 protected:
  workload::Workload w_ = test::make_workload({
      make_job(0, 4, 20, 30),   // job 0
      make_job(5, 6, 10, 10),   // job 1
  });
  Schedule s_{machine(8), 2, "X"};
};

TEST_F(ValidateTest, AcceptsValidSchedule) {
  s_.record(0) = {0, 0, 20, 4, false};
  s_.record(1) = {5, 20, 30, 6, false};
  EXPECT_NO_THROW(validate_schedule(s_, w_));
}

TEST_F(ValidateTest, AcceptsBackToBackAtFullCapacity) {
  // Job 1 starts exactly when job 0's nodes free up: 4+6 > 8 would overlap,
  // but end-at-t release before start-at-t acquire makes this valid.
  s_.record(0) = {0, 0, 20, 4, false};
  s_.record(1) = {5, 20, 30, 6, false};
  EXPECT_NO_THROW(validate_schedule(s_, w_));
}

TEST_F(ValidateTest, RejectsCapacityViolation) {
  s_.record(0) = {0, 0, 20, 4, false};
  s_.record(1) = {5, 10, 20, 6, false};  // overlaps job 0: 10 > 8 nodes
  EXPECT_THROW(validate_schedule(s_, w_), std::logic_error);
}

TEST_F(ValidateTest, RejectsStartBeforeSubmit) {
  s_.record(0) = {0, 0, 20, 4, false};
  s_.record(1) = {5, 2, 12, 6, false};
  EXPECT_THROW(validate_schedule(s_, w_), std::logic_error);
}

TEST_F(ValidateTest, RejectsWrongRuntime) {
  // Ran 25 but its runtime is 20 (no time sharing).
  s_.record(0) = {0, 0, 25, 4, false};
  s_.record(1) = {5, 25, 35, 6, false};
  EXPECT_THROW(validate_schedule(s_, w_), std::logic_error);
}

TEST_F(ValidateTest, RejectsUnfinishedJob) {
  s_.record(0) = {0, 0, 20, 4, false};
  s_.record(1) = {5, 20, kTimeInfinity, 6, false};  // never ended
  EXPECT_THROW(validate_schedule(s_, w_), std::logic_error);
}

TEST_F(ValidateTest, RejectsNodeMismatch) {
  s_.record(0) = {0, 0, 20, 5, false};  // job 0 asked for 4
  s_.record(1) = {5, 20, 30, 6, false};
  EXPECT_THROW(validate_schedule(s_, w_), std::logic_error);
}

TEST_F(ValidateTest, RejectsJobCountMismatch) {
  Schedule s(machine(8), 1, "X");
  EXPECT_THROW(validate_schedule(s, w_), std::logic_error);
}

TEST(ValidateCancellation, AcceptsCancellationAtTheLimit) {
  // Runtime 80 exceeds the 50 s estimate: Rule 2 cancels at start+50.
  const workload::Workload w =
      test::make_workload({make_job(0, 2, 80, 50)});
  Schedule s(machine(8), 1, "X");
  s.record(0) = {0, 0, 50, 2, true};
  EXPECT_NO_THROW(validate_schedule(s, w));
}

TEST(ValidateCancellation, RejectsCancellationElsewhere) {
  const workload::Workload w =
      test::make_workload({make_job(0, 2, 80, 50)});
  Schedule s(machine(8), 1, "X");
  s.record(0) = {0, 0, 40, 2, true};  // cancelled before the limit
  EXPECT_THROW(validate_schedule(s, w), std::logic_error);
}

TEST(ValidateCancellation, RejectsCancellingAFittingJob) {
  const workload::Workload w =
      test::make_workload({make_job(0, 2, 30, 50)});
  Schedule s(machine(8), 1, "X");
  s.record(0) = {0, 0, 50, 2, true};  // claims cancellation though 30 <= 50
  EXPECT_THROW(validate_schedule(s, w), std::logic_error);
}

}  // namespace
}  // namespace jsched::sim
