#include "workload/workload.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "core/factory.h"
#include "metrics/streaming.h"
#include "serve/daemon.h"
#include "serve/feed.h"
#include "sim/streaming.h"
#include "test_support.h"
#include "workload/job_source.h"
#include "workload/transforms.h"

namespace jsched::workload {
namespace {

using test::make_job;

TEST(Workload, FinalizeSortsAndShiftsOrigin) {
  Workload w;
  w.add(make_job(100, 1, 10));
  w.add(make_job(50, 2, 20));
  w.add(make_job(75, 3, 30));
  w.finalize();
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w[0].submit, 0);
  EXPECT_EQ(w[0].nodes, 2);
  EXPECT_EQ(w[1].submit, 25);
  EXPECT_EQ(w[2].submit, 50);
  for (JobId i = 0; i < w.size(); ++i) EXPECT_EQ(w[i].id, i);
}

TEST(Workload, FinalizeIsStableForTies) {
  Workload w;
  Job a = make_job(10, 1, 1);
  a.user = 1;
  Job b = make_job(10, 1, 1);
  b.user = 2;
  w.add(a);
  w.add(b);
  w.finalize();
  EXPECT_EQ(w[0].user, 1);
  EXPECT_EQ(w[1].user, 2);
}

TEST(Workload, ValidateRejectsZeroNodes) {
  Workload w;
  w.add(make_job(0, 0, 10));
  EXPECT_THROW(w.finalize(), std::invalid_argument);
}

TEST(Workload, ValidateRejectsZeroRuntime) {
  Workload w;
  w.add(make_job(0, 1, 0));
  EXPECT_THROW(w.finalize(), std::invalid_argument);
}

TEST(Workload, AllowsRuntimeAboveEstimate) {
  // Rule 2: such a job is admitted and cancelled at its limit by the
  // simulator, so the container must accept it.
  Workload w;
  w.add(make_job(0, 1, 100, 50));
  EXPECT_NO_THROW(w.finalize());
}

TEST(Workload, MaxNodesAndSpan) {
  const Workload w = test::make_workload(
      {make_job(0, 4, 10), make_job(500, 7, 10), make_job(200, 2, 10)});
  EXPECT_EQ(w.max_nodes(), 7);
  EXPECT_EQ(w.span(), 500);
}

TEST(Workload, TotalArea) {
  const Workload w =
      test::make_workload({make_job(0, 4, 10), make_job(0, 2, 100)});
  EXPECT_DOUBLE_EQ(w.total_area(), 4 * 10 + 2 * 100);
}

TEST(Workload, EmptyWorkloadProperties) {
  Workload w;
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.max_nodes(), 0);
  EXPECT_EQ(w.span(), 0);
  EXPECT_EQ(w.total_area(), 0.0);
}

/// Jobs exercising every fingerprinted field, including negative users
/// and a non-default status.
Workload pinned_jobs() {
  std::vector<Job> jobs = {make_job(0, 4, 100, 120), make_job(30, 1, 5),
                           make_job(30, 64, 7200, 3600)};
  jobs[1].user = 7;
  jobs[1].priority_class = 2;
  jobs[2].user = -3;
  jobs[2].status = JobStatus::kFailed;
  return test::make_workload(std::move(jobs));
}

TEST(Workload, FingerprintIsPinned) {
  // workload::fingerprint is an on-disk identity: the JWB1 footer and every
  // sweep-journal cell key carry it, so a file written by an older build
  // must still match. Pinned for fixed jobs, and for the empty workload.
  EXPECT_EQ(fingerprint(pinned_jobs()), 16512192874762797243ull);
  EXPECT_EQ(fingerprint(Workload{}), 12161962213042174405ull);
}

TEST(JobModel, AreaUsesActualRuntime) {
  const Job j = make_job(0, 8, 100, 400);
  EXPECT_DOUBLE_EQ(j.area(), 800.0);
  EXPECT_DOUBLE_EQ(j.estimated_area(), 3200.0);
}

TEST(Summarize, BasicStatistics) {
  const Workload w = test::make_workload(
      {make_job(0, 2, 10, 20), make_job(100, 4, 30, 30), make_job(300, 6, 50, 100)});
  const WorkloadSummary s = summarize(w);
  EXPECT_EQ(s.job_count, 3u);
  EXPECT_EQ(s.span, 300);
  EXPECT_DOUBLE_EQ(s.interarrival.mean(), 150.0);
  EXPECT_DOUBLE_EQ(s.nodes.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.runtime.mean(), 30.0);
  EXPECT_DOUBLE_EQ(s.total_area, 2 * 10 + 4 * 30 + 6 * 50);
}

TEST(Summarize, OfferedLoad) {
  // 2 nodes x 100 s of work arriving over 100 s on a 2-node machine: load 1.
  const Workload w =
      test::make_workload({make_job(0, 2, 50), make_job(100, 2, 50)});
  const WorkloadSummary s = summarize(w);
  EXPECT_DOUBLE_EQ(s.offered_load(2), 1.0);
  EXPECT_DOUBLE_EQ(s.offered_load(4), 0.5);
}

TEST(Summarize, DescribeMentionsKeyFields) {
  const Workload w =
      test::make_workload({make_job(0, 2, 50), make_job(100, 2, 50)});
  const std::string d = describe(summarize(w));
  EXPECT_NE(d.find("jobs"), std::string::npos);
  EXPECT_NE(d.find("span"), std::string::npos);
  EXPECT_NE(d.find("total area"), std::string::npos);
}

TEST(Transforms, TrimToMachineDropsWideJobs) {
  const Workload w = test::make_workload(
      {make_job(0, 300, 10), make_job(10, 256, 10), make_job(20, 1, 10)});
  std::size_t dropped = 0;
  const Workload trimmed = trim_to_machine(w, 256, &dropped);
  EXPECT_EQ(dropped, 1u);
  ASSERT_EQ(trimmed.size(), 2u);
  EXPECT_EQ(trimmed.max_nodes(), 256);
  // Ids are re-densified.
  EXPECT_EQ(trimmed[0].id, 0u);
  EXPECT_EQ(trimmed[1].id, 1u);
}

TEST(Transforms, TrimRejectsBadMachine) {
  const Workload w = test::make_workload({make_job(0, 1, 10)});
  EXPECT_THROW(trim_to_machine(w, 0), std::invalid_argument);
}

TEST(Transforms, WithExactEstimates) {
  const Workload w = test::make_workload({make_job(0, 2, 10, 500)});
  const Workload exact = with_exact_estimates(w);
  EXPECT_EQ(exact[0].estimate, 10);
  EXPECT_EQ(exact[0].runtime, 10);
}

TEST(Transforms, TakePrefix) {
  const Workload w = test::make_workload(
      {make_job(0, 1, 10), make_job(10, 1, 10), make_job(20, 1, 10)});
  const Workload p = take_prefix(w, 2);
  EXPECT_EQ(p.size(), 2u);
  const Workload all = take_prefix(w, 99);
  EXPECT_EQ(all.size(), 3u);
}

TEST(Transforms, ScaleEstimates) {
  const Workload w = test::make_workload({make_job(0, 2, 10, 20)});
  const Workload scaled = scale_estimates(w, 3.0);
  EXPECT_EQ(scaled[0].estimate, 60);
  EXPECT_THROW(scale_estimates(w, 0.5), std::invalid_argument);
}

/// Emits its jobs exactly as given: no stamping, no checks.
class ListSource final : public JobSource {
 public:
  explicit ListSource(std::vector<Job> jobs) : jobs_(std::move(jobs)) {}
  bool next(Job& out) override {
    if (pos_ == jobs_.size()) return false;
    out = jobs_[pos_++];
    return true;
  }
  const std::string& name() const noexcept override { return name_; }

 private:
  std::vector<Job> jobs_;
  std::size_t pos_ = 0;
  std::string name_ = "list";
};

TEST(WorkloadIntake, EveryIntakeHoldsTheRuntimeBound) {
  // The job model's bound (kMaxJobSeconds, job.h) at three intakes: a
  // batch workload, a streamed source and a served feed all accept a job
  // that runs exactly 10^15 s and reject one that runs a second longer.
  for (const Duration runtime : {kMaxJobSeconds, kMaxJobSeconds + 1}) {
    SCOPED_TRACE(runtime);
    const bool fits = runtime == kMaxJobSeconds;
    Job job = make_job(0, 1, runtime);
    job.id = 0;

    Workload w;
    w.add(job);
    if (fits) {
      EXPECT_NO_THROW(w.finalize());
    } else {
      EXPECT_THROW(w.finalize(), std::invalid_argument);
    }

    const sim::Machine machine{4};
    ListSource source({job});
    auto scheduler = core::make_scheduler(core::AlgorithmSpec{});
    metrics::StreamingAggregator aggregator(machine.nodes);
    if (fits) {
      EXPECT_EQ(sim::simulate_stream(machine, *scheduler, source, aggregator,
                                     {})
                    .jobs,
                1u);
    } else {
      EXPECT_THROW(sim::simulate_stream(machine, *scheduler, source,
                                        aggregator, {}),
                   std::invalid_argument);
    }

    serve::SubmitRecord record;
    record.submit = 0;
    record.runtime = runtime;
    record.estimate = runtime;
    test::ScriptFeed feed({record});
    serve::ServeOptions options;
    options.machine = machine;
    const serve::ServeReport report = serve::serve(feed, options);
    EXPECT_EQ(report.rejected_invalid, fits ? 0u : 1u);
    EXPECT_EQ(report.completed, fits ? 1u : 0u);
  }
}

}  // namespace
}  // namespace jsched::workload
