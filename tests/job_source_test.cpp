// Streamed-equals-batch: every JobSource must emit, one job at a time,
// exactly the stream its batch counterpart materializes — same ids, same
// fields, same workload fingerprint. This is the contract that lets the
// bounded-memory simulation claim bit-identity with the batch pipeline.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_support.h"
#include "workload/ctc_model.h"
#include "workload/job_source.h"
#include "workload/random_model.h"
#include "workload/stats_model.h"
#include "workload/swf.h"

namespace jsched {
namespace {

void expect_same_stream(workload::JobSource& source,
                        const workload::Workload& batch) {
  workload::FingerprintAccumulator fnv;
  Job j;
  std::size_t n = 0;
  while (source.next(j)) {
    ASSERT_LT(n, batch.size());
    const Job& b = batch[n];
    EXPECT_EQ(j.id, b.id) << "job " << n;
    EXPECT_EQ(j.submit, b.submit) << "job " << n;
    EXPECT_EQ(j.nodes, b.nodes) << "job " << n;
    EXPECT_EQ(j.runtime, b.runtime) << "job " << n;
    EXPECT_EQ(j.estimate, b.estimate) << "job " << n;
    EXPECT_EQ(j.user, b.user) << "job " << n;
    EXPECT_EQ(j.priority_class, b.priority_class) << "job " << n;
    EXPECT_EQ(j.status, b.status) << "job " << n;
    fnv.add(j);
    ++n;
  }
  EXPECT_EQ(n, batch.size());
  EXPECT_EQ(fnv.value(), workload::fingerprint(batch));
}

TEST(JobSourceTest, CtcStreamEqualsBatch) {
  for (const std::uint64_t seed : {1ull, 42ull, 1999ull}) {
    workload::CtcModelParams params;
    params.job_count = 500;
    const workload::Workload batch = workload::generate_ctc(params, seed);
    workload::CtcJobSource source(params, seed);
    EXPECT_EQ(source.size_hint(), params.job_count);
    expect_same_stream(source, batch);
  }
}

TEST(JobSourceTest, RandomStreamEqualsBatch) {
  for (const std::uint64_t seed : {7ull, 1999ull}) {
    workload::RandomModelParams params;
    params.job_count = 400;
    const workload::Workload batch = workload::generate_random(params, seed);
    workload::RandomJobSource source(params, seed);
    expect_same_stream(source, batch);
  }
}

TEST(JobSourceTest, StatsStreamEqualsBatch) {
  workload::CtcModelParams params;
  params.job_count = 300;
  const workload::Workload trace = workload::generate_ctc(params, 11);
  const workload::WorkloadStatistics stats =
      workload::WorkloadStatistics::extract(trace);
  for (const std::uint64_t seed : {3ull, 1999ull}) {
    const workload::Workload batch = stats.sample(250, seed);
    workload::StatsJobSource source(stats, 250, seed);
    expect_same_stream(source, batch);
  }
}

TEST(JobSourceTest, WorkloadSourceRoundTrips) {
  workload::CtcModelParams params;
  params.job_count = 120;
  const workload::Workload w = workload::generate_ctc(params, 5);
  workload::WorkloadSource source(w);
  expect_same_stream(source, w);
}

TEST(JobSourceTest, MaterializeEqualsBatchGenerator) {
  workload::CtcModelParams params;
  params.job_count = 200;
  workload::CtcJobSource source(params, 77);
  const workload::Workload streamed = workload::materialize(source);
  const workload::Workload batch = workload::generate_ctc(params, 77);
  EXPECT_EQ(workload::fingerprint(streamed), workload::fingerprint(batch));
  EXPECT_EQ(streamed.name(), batch.name());
}

TEST(JobSourceTest, StampShiftsOriginAndAssignsDenseIds) {
  // A raw generator whose first submit is far from zero must stream
  // origin-shifted, exactly like Workload::finalize.
  workload::RandomModelParams params;
  params.job_count = 50;
  workload::RandomJobSource source(params, 123);
  Job j;
  ASSERT_TRUE(source.next(j));
  EXPECT_EQ(j.id, 0u);
  EXPECT_EQ(j.submit, 0);
  Time prev = 0;
  JobId expected = 1;
  while (source.next(j)) {
    EXPECT_EQ(j.id, expected++);
    EXPECT_GE(j.submit, prev);
    prev = j.submit;
  }
  EXPECT_EQ(expected, params.job_count);
}

class SwfSourceTest : public ::testing::Test {
 protected:
  // One file per test: `ctest -j` runs each test in its own process, so a
  // shared name would let concurrent tests overwrite each other's file.
  std::string path_ =
      ::testing::TempDir() + "/job_source_test." +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".swf";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(SwfSourceTest, StreamEqualsBatchReader) {
  workload::CtcModelParams params;
  params.job_count = 150;
  const workload::Workload w = workload::generate_ctc(params, 9);
  workload::write_swf_file(path_, w);

  const workload::Workload batch = workload::read_swf_file(path_);
  workload::SwfReadStats stats;
  workload::SwfJobSource source(path_, {}, &stats);
  Job j;
  std::size_t n = 0;
  workload::FingerprintAccumulator fnv;
  while (source.next(j)) {
    fnv.add(j);
    ++n;
  }
  EXPECT_EQ(n, batch.size());
  EXPECT_EQ(stats.accepted, batch.size());
  EXPECT_EQ(fnv.value(), workload::fingerprint(batch));
}

TEST_F(SwfSourceTest, UnsortedTraceThrows) {
  {
    std::ofstream out(path_);
    out << "1 100 -1 50 50 -1 -1 4 60 -1 1 7 -1 -1 -1 -1 -1 -1\n";
    out << "2 40 -1 50 50 -1 -1 4 60 -1 1 7 -1 -1 -1 -1 -1 -1\n";
  }
  workload::SwfJobSource source(path_);
  Job j;
  ASSERT_TRUE(source.next(j));
  EXPECT_THROW(source.next(j), std::runtime_error);
}

TEST_F(SwfSourceTest, MissingFileThrows) {
  EXPECT_THROW(workload::SwfJobSource("/nonexistent/path.swf"),
               std::runtime_error);
}

}  // namespace
}  // namespace jsched
