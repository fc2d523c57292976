#include "sim/schedule.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

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

/// A valid faulty schedule on 4 nodes. Two nodes fail at t=40 and stay
/// down (one capacity step). Job 0 is never killed and runs its exact 50 s
/// runtime. Job 1 (submit 5) is killed at 40 after 35 s, with 30 s
/// checkpointed; it restarts at 60 and runs its remaining 70 s plus a 5 s
/// restart overhead.
class ValidateFaulty : public ::testing::Test {
 protected:
  ValidateFaulty() {
    s_.record(0) = {0, 2, 52, 2, false};
    s_.record(1) = {5, 60, 135, 2, false};
    s_.attempts.push_back({1, 5, 40, 2, 30});
    s_.capacity_events.emplace_back(40, 2);
  }

  workload::Workload w_ = test::make_workload({
      make_job(0, 2, 50, 50),    // job 0
      make_job(5, 2, 100, 100),  // job 1
  });
  Schedule s_{machine(4), 2, "X"};
};

TEST_F(ValidateFaulty, AcceptsTheBaseSchedule) {
  EXPECT_NO_THROW(validate_schedule(s_, w_));
}

TEST_F(ValidateFaulty, EachRuleRejectsItsMutation) {
  struct Case {
    const char* rule;  // must appear in the error message
    void (*mutate)(Schedule&);
  };
  const Case cases[] = {
      {"attempt of job 2: unknown job",
       [](Schedule& s) { s.attempts[0].id = 2; }},
      {"attempt of job 1: node count mismatch",
       [](Schedule& s) { s.attempts[0].nodes = 1; }},
      {"attempt of job 1: started before submission",
       [](Schedule& s) { s.attempts[0].start = 4; }},
      {"attempt of job 1: non-positive attempt",
       [](Schedule& s) { s.attempts[0].end = s.attempts[0].start; }},
      {"attempt of job 1: killed attempt overlaps the final attempt",
       [](Schedule& s) { s.attempts[0].end = 61; }},
      {"attempt of job 1: saved work outside the attempt",
       [](Schedule& s) { s.attempts[0].saved = 36; }},
      {"attempt of job 1: saved work outside the attempt",
       [](Schedule& s) { s.attempts[0].saved = -1; }},
      {"job 1: executed less than its lifetime",
       [](Schedule& s) { s.record(1).end = 124; }},
      {"job 1: non-positive final attempt",
       [](Schedule& s) { s.record(1).end = s.record(1).start; }},
      {"node capacity exceeded at time 40",
       [](Schedule& s) { s.capacity_events[0].second = 1; }},
      {"node capacity exceeded at time 60",
       [](Schedule& s) { s.capacity_events.emplace_back(60, 1); }},
      {"job 0: never completed",
       [](Schedule& s) { s.record(0).end = kTimeInfinity; }},
      {"job 0: node count mismatch",
       [](Schedule& s) { s.record(0).nodes = 1; }},
      {"job 0: submit time mismatch",
       [](Schedule& s) { s.record(0).submit = 1; }},
      {"job 0: started before submission",
       [](Schedule& s) {
         s.record(0).start = -1;
         s.record(0).end = 49;
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.rule);
    Schedule mutated = s_;
    c.mutate(mutated);
    try {
      validate_schedule(mutated, w_);
      ADD_FAILURE() << "accepted";
    } catch (const ValidationError& e) {
      EXPECT_NE(std::string(e.what()).find(c.rule), std::string::npos)
          << e.what();
    }
  }
}

TEST_F(ValidateFaulty, RejectsNeverKilledJobThatOverran) {
  // Job 0 was never killed, so under faults it still owes exactly its
  // runtime; 55 s would pass a conservation-only check (55 >= 50).
  s_.record(0).end = 57;
  try {
    validate_schedule(s_, w_);
    FAIL() << "accepted";
  } catch (const ValidationError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "job 0: ran for other than its runtime"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace jsched::sim
