#include "workload/swf.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/factory.h"
#include "fault/fault.h"
#include "sim/machine.h"
#include "sim/schedule.h"
#include "sim/simulator.h"
#include "test_support.h"

namespace jsched::workload {
namespace {

// One valid SWF record: job 1, submit 100, wait 5, run 600, alloc 4, ...
// req_procs 4, req_time 1200, user 12.
constexpr const char* kRecord =
    "1 100 5 600 4 -1 -1 4 1200 -1 1 12 -1 -1 -1 -1 -1 -1\n";

TEST(SwfReader, ParsesBasicRecord) {
  std::istringstream in(std::string("; header comment\n") + kRecord);
  SwfReadStats stats;
  const Workload w = read_swf(in, "t", &stats);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(stats.comments, 1u);
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(w[0].submit, 0);  // origin-shifted
  EXPECT_EQ(w[0].nodes, 4);
  EXPECT_EQ(w[0].runtime, 600);
  EXPECT_EQ(w[0].estimate, 1200);
  EXPECT_EQ(w[0].user, 12);
}

TEST(SwfReader, SkipsUnusableRecords) {
  std::istringstream in(
      "1 100 5 -1 4 -1 -1 4 1200 -1 1 12 -1 -1 -1 -1 -1 -1\n"  // no runtime
      "2 100 5 600 -1 -1 -1 -1 1200 -1 1 12 -1 -1 -1 -1 -1 -1\n"  // no procs
      + std::string(kRecord));
  SwfReadStats stats;
  const Workload w = read_swf(in, "t", &stats);
  EXPECT_EQ(stats.skipped_invalid, 2u);
  EXPECT_EQ(w.size(), 1u);
}

TEST(SwfReader, ClampsOverrunEstimates) {
  // Runtime 600 but requested time only 300: job overran and should be
  // modelled as running to (a raised) limit.
  std::istringstream in("1 0 0 600 2 -1 -1 2 300 -1 1 1 -1 -1 -1 -1 -1 -1\n");
  SwfReadStats stats;
  const Workload w = read_swf(in, "t", &stats);
  EXPECT_EQ(stats.clamped_estimate, 1u);
  EXPECT_EQ(w[0].estimate, 600);
}

TEST(SwfReader, FallsBackToAllocatedProcs) {
  std::istringstream in("1 0 0 600 8 -1 -1 -1 900 -1 1 1 -1 -1 -1 -1 -1 -1\n");
  const Workload w = read_swf(in);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0].nodes, 8);
}

TEST(SwfReader, MissingRequestedTimeUsesRuntime) {
  std::istringstream in("1 0 0 600 2 -1 -1 2 -1 -1 1 1 -1 -1 -1 -1 -1 -1\n");
  const Workload w = read_swf(in);
  EXPECT_EQ(w[0].estimate, 600);
}

TEST(SwfReader, ThrowsOnMalformedLine) {
  std::istringstream in("garbage line\n");
  EXPECT_THROW(read_swf(in), std::runtime_error);
}

TEST(SwfReader, ShortRecordThrows) {
  std::istringstream in("1 2 3\n");
  EXPECT_THROW(read_swf(in), std::runtime_error);
}

TEST(SwfReader, StrictThrowsOnNonFiniteField) {
  // Whether the library's num_get rejects "nan" outright (libstdc++) or
  // parses it into a non-finite double, strict mode must throw before any
  // integer cast sees the value.
  std::istringstream in(
      "1 nan 5 600 4 -1 -1 4 1200 -1 1 12 -1 -1 -1 -1 -1 -1\n");
  EXPECT_THROW(read_swf(in), std::runtime_error);
}

TEST(SwfReader, StrictThrowsOnOutOfRangeField) {
  // Past int64, and past the job model's bounds (job.h): 10^15 s for
  // times, INT_MAX nodes, an int32 user.
  for (const char* record :
       {"1 1e20 5 600 4 -1 -1 4 1200 -1 1 12 -1 -1 -1 -1 -1 -1\n",
        "1 1000000000000001 5 600 4 -1 -1 4 1200 -1 1 12 -1 -1 -1 -1 -1 -1\n",
        "1 100 5 1000000000000001 4 -1 -1 4 -1 -1 1 12 -1 -1 -1 -1 -1 -1\n",
        "1 100 5 600 4 -1 -1 4 1000000000000001 -1 1 12 -1 -1 -1 -1 -1 -1\n",
        "1 100 5 600 4 -1 -1 2147483648 1200 -1 1 12 -1 -1 -1 -1 -1 -1\n",
        "1 100 5 600 4 -1 -1 4 1200 -1 1 2147483648 -1 -1 -1 -1 -1 -1\n"}) {
    SCOPED_TRACE(record);
    std::istringstream in(record);
    EXPECT_THROW(read_swf(in), std::runtime_error);
  }
  // Each bound itself is a job.
  std::istringstream in(
      "1 1000000000000000 5 1000000000000000 4 -1 -1 2147483647 "
      "1000000000000000 -1 1 2147483647 -1 -1 -1 -1 -1 -1\n");
  const Workload w = read_swf(in);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0].nodes, 2147483647);
  EXPECT_EQ(w[0].runtime, 1'000'000'000'000'000);
  EXPECT_EQ(w[0].estimate, 1'000'000'000'000'000);
  EXPECT_EQ(w[0].user, 2147483647);
}

TEST(SwfLenient, SkipsMalformedLinesAndCollectsReport) {
  // "nan" fails numeric extraction (libstdc++'s num_get accepts no nan/inf
  // spellings), so it lands under non-numeric-field; "1e20" parses fine
  // and is caught by the range guard instead.
  std::istringstream in(
      std::string("garbage line\n") + "1 2 3\n" +
      "2 nan 5 600 4 -1 -1 4 1200 -1 1 12 -1 -1 -1 -1 -1 -1\n" +
      "3 1e20 5 600 4 -1 -1 4 1200 -1 1 12 -1 -1 -1 -1 -1 -1\n" + kRecord);
  SwfReadStats stats;
  SwfParseReport report;
  report.malformed = 99;  // stale content: read_swf must reset the report
  SwfOptions options;
  options.lenient = true;
  options.report = &report;
  const Workload w = read_swf(in, "dirty", &stats, options);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.skipped_malformed, 4u);
  EXPECT_EQ(report.total(), 4u);
  EXPECT_EQ(report.malformed, 3u);
  EXPECT_EQ(report.out_of_range, 1u);
  EXPECT_EQ(report.reason_counts.at("non-numeric-field"), 2u);
  EXPECT_EQ(report.reason_counts.at("short-record"), 1u);
  EXPECT_EQ(report.reason_counts.at("out-of-range-field"), 1u);
  ASSERT_EQ(report.samples.size(), 4u);
  EXPECT_EQ(report.samples[0].line, 1u);
  EXPECT_EQ(report.samples[0].reason, "non-numeric-field");
  EXPECT_EQ(report.samples[1].line, 2u);
  EXPECT_EQ(report.samples[1].reason, "short-record");
  EXPECT_EQ(report.samples[2].reason, "non-numeric-field");
  EXPECT_EQ(report.samples[3].reason, "out-of-range-field");
}

TEST(SwfLenient, SummaryNamesEveryReason) {
  std::istringstream in("1 2 3\n4 5\ngarbage\n");
  SwfParseReport report;
  SwfOptions options;
  options.lenient = true;
  options.report = &report;
  const Workload w = read_swf(in, "t", nullptr, options);
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(report.summary(),
            "3 records skipped (non-numeric-field=1, short-record=2)");
}

TEST(SwfLenient, WorksWithoutReport) {
  std::istringstream in(std::string("junk\n") + kRecord);
  SwfReadStats stats;
  SwfOptions options;
  options.lenient = true;
  const Workload w = read_swf(in, "t", &stats, options);
  EXPECT_EQ(w.size(), 1u);
  EXPECT_EQ(stats.skipped_malformed, 1u);
}

TEST(SwfLenient, SampleListIsCapped) {
  std::string text;
  for (int i = 0; i < 12; ++i) text += "1 2 3\n";
  std::istringstream in(text);
  SwfParseReport report;
  SwfOptions options;
  options.lenient = true;
  options.report = &report;
  const Workload w = read_swf(in, "t", nullptr, options);
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(report.reason_counts.at("short-record"), 12u);
  EXPECT_EQ(report.samples.size(), SwfParseReport::kMaxSamples);
}

TEST(SwfReader, EmptyStreamYieldsEmptyWorkload) {
  std::istringstream in("; only comments\n\n");
  const Workload w = read_swf(in);
  EXPECT_TRUE(w.empty());
}

TEST(SwfRoundTrip, WriteThenReadPreservesJobs) {
  const Workload original = test::make_workload({
      test::make_job(0, 4, 100, 200),
      test::make_job(50, 16, 3600, 7200),
      test::make_job(700, 1, 1, 1),
  });
  std::stringstream buf;
  write_swf(buf, original);
  const Workload reread = read_swf(buf, "roundtrip");
  ASSERT_EQ(reread.size(), original.size());
  for (JobId i = 0; i < original.size(); ++i) {
    EXPECT_EQ(reread[i].submit, original[i].submit);
    EXPECT_EQ(reread[i].nodes, original[i].nodes);
    EXPECT_EQ(reread[i].runtime, original[i].runtime);
    EXPECT_EQ(reread[i].estimate, original[i].estimate);
  }
}

// One record per archive status code; only the status field (11th token)
// varies.
std::string record_with_status(int job, const char* status) {
  return std::to_string(job) + " 0 0 600 4 -1 -1 4 1200 -1 " + status +
         " 12 -1 -1 -1 -1 -1 -1\n";
}

TEST(SwfStatus, SurfacesEveryStatusCode) {
  std::istringstream in(record_with_status(1, "1") +   // completed
                        record_with_status(2, "0") +   // failed
                        record_with_status(3, "5") +   // cancelled
                        record_with_status(4, "3") +   // partial -> unknown
                        record_with_status(5, "-1"));  // missing -> unknown
  const Workload w = read_swf(in);
  ASSERT_EQ(w.size(), 5u);
  EXPECT_EQ(w[0].status, JobStatus::kCompleted);
  EXPECT_EQ(w[1].status, JobStatus::kFailed);
  EXPECT_EQ(w[2].status, JobStatus::kCancelled);
  EXPECT_EQ(w[3].status, JobStatus::kUnknown);
  EXPECT_EQ(w[4].status, JobStatus::kUnknown);
}

TEST(SwfStatus, DropUnsuccessfulKeepsOnlyCompleted) {
  std::istringstream in(record_with_status(1, "1") + record_with_status(2, "0") +
                        record_with_status(3, "5") + record_with_status(4, "2"));
  SwfReadStats stats;
  SwfOptions options;
  options.drop_unsuccessful = true;
  const Workload w = read_swf(in, "t", &stats, options);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0].status, JobStatus::kCompleted);
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.skipped_unsuccessful, 3u);
  EXPECT_EQ(stats.skipped_invalid, 0u);
}

TEST(SwfStatus, DropUnsuccessfulCountsInvalidSeparately) {
  // An unusable record (no runtime) is skipped_invalid even when its status
  // would also have been dropped: the invalid-fields check runs first.
  std::istringstream in("1 0 0 -1 4 -1 -1 4 1200 -1 0 12 -1 -1 -1 -1 -1 -1\n" +
                        record_with_status(2, "1"));
  SwfReadStats stats;
  SwfOptions options;
  options.drop_unsuccessful = true;
  const Workload w = read_swf(in, "t", &stats, options);
  EXPECT_EQ(w.size(), 1u);
  EXPECT_EQ(stats.skipped_invalid, 1u);
  EXPECT_EQ(stats.skipped_unsuccessful, 0u);
}

TEST(SwfStatus, RoundTripsThroughWrite) {
  std::istringstream in(record_with_status(1, "1") + record_with_status(2, "0") +
                        record_with_status(3, "5") + record_with_status(4, "4"));
  const Workload original = read_swf(in);
  std::stringstream buf;
  write_swf(buf, original);
  const Workload reread = read_swf(buf, "roundtrip");
  ASSERT_EQ(reread.size(), original.size());
  for (JobId i = 0; i < original.size(); ++i) {
    EXPECT_EQ(reread[i].status, original[i].status) << "job " << i;
  }
  // kUnknown serializes as -1, the archive's "not recorded".
  EXPECT_EQ(reread[3].status, JobStatus::kUnknown);
}

TEST(SwfFaultRoundTrip, KilledAttemptsSurviveWriteAndRead) {
  // One 4-node job alone on a 4-node machine; a full outage at t=100 kills
  // its first attempt, capacity returns at t=200 and the job reruns to
  // completion. The executed workload carries the kill as a status-0
  // ("failed") record — exactly what a real archive trace would show — and
  // that status must survive an SWF write/read round trip.
  const Workload w = test::make_workload({test::make_job(0, 4, 600, 1200)});
  sim::Machine m;
  m.nodes = 4;
  const fault::FailureTrace outages =
      fault::make_failure_trace({{100, -4}, {200, 4}}, m.nodes);
  sim::SimOptions opt;
  opt.faults.trace = &outages;
  auto scheduler = core::make_scheduler(core::AlgorithmSpec{});
  const sim::Schedule s = sim::simulate(m, *scheduler, w, opt);
  ASSERT_EQ(s.attempts.size(), 1u);

  const Workload executed = sim::as_executed_workload(s, w);
  const auto count_status = [](const Workload& wl, JobStatus st) {
    std::size_t n = 0;
    for (JobId i = 0; i < wl.size(); ++i) {
      if (wl[i].status == st) ++n;
    }
    return n;
  };
  ASSERT_EQ(executed.size(), 2u);
  EXPECT_EQ(count_status(executed, JobStatus::kCompleted), 1u);
  EXPECT_EQ(count_status(executed, JobStatus::kFailed), 1u);

  std::stringstream buf;
  write_swf(buf, executed);
  const Workload reread = read_swf(buf, "executed");
  ASSERT_EQ(reread.size(), executed.size());
  for (JobId i = 0; i < executed.size(); ++i) {
    EXPECT_EQ(reread[i].status, executed[i].status) << "job " << i;
    EXPECT_EQ(reread[i].runtime, executed[i].runtime) << "job " << i;
  }
  EXPECT_EQ(count_status(reread, JobStatus::kFailed), 1u);
}

TEST(SwfFile, MissingFileThrows) {
  EXPECT_THROW(read_swf_file("/nonexistent/path.swf"), std::runtime_error);
}

}  // namespace
}  // namespace jsched::workload
