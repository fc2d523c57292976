// Sharded sweeps: the deterministic cell partition (eval::ShardPlan),
// shard-aware grid execution, journal merging with its partition
// invariants, the workload materialization cache, and the in-process
// worker loop. The load-bearing property throughout: how a sweep is
// partitioned must be unobservable in its results — every RunResult,
// fingerprint included, bit-identical to the serial single-process run.
#include "eval/shard.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "eval/experiment.h"
#include "eval/journal.h"
#include "eval/replication.h"
#include "eval/shard_driver.h"
#include "test_support.h"
#include "workload/workload.h"

namespace jsched {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& stem)
      : path_(std::string(::testing::TempDir()) + stem + "-" +
              std::to_string(counter_++) + ".journal") {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  static int counter_;
  std::string path_;
};

int TempFile::counter_ = 0;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(Shard, SpecValidates) {
  EXPECT_NO_THROW((eval::ShardSpec{0, 1}).validate());
  EXPECT_NO_THROW((eval::ShardSpec{3, 4}).validate());
  EXPECT_THROW((eval::ShardSpec{0, 0}).validate(), std::invalid_argument);
  EXPECT_THROW((eval::ShardSpec{2, 2}).validate(), std::invalid_argument);
  EXPECT_FALSE((eval::ShardSpec{0, 1}).active());
  EXPECT_TRUE((eval::ShardSpec{0, 2}).active());
}

TEST(Shard, PlanDealsRoundRobinByKeyRank) {
  // Sorted rank r -> shard r % count, independent of input order.
  const eval::ShardPlan plan({50, 10, 40, 20, 30}, 2);
  EXPECT_EQ(plan.shard_of(10), 0u);
  EXPECT_EQ(plan.shard_of(20), 1u);
  EXPECT_EQ(plan.shard_of(30), 0u);
  EXPECT_EQ(plan.shard_of(40), 1u);
  EXPECT_EQ(plan.shard_of(50), 0u);
  EXPECT_EQ(plan.keys_of(0), (std::vector<std::uint64_t>{10, 30, 50}));
  EXPECT_EQ(plan.keys_of(1), (std::vector<std::uint64_t>{20, 40}));
}

TEST(Shard, PlanIsDeterministicAcrossInputOrders) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 1; k <= 64; ++k) keys.push_back(k * 0x9e3779b9ull);
  const eval::ShardPlan reference(keys, 5);
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    std::shuffle(keys.begin(), keys.end(), rng);
    const eval::ShardPlan shuffled(keys, 5);
    for (std::uint64_t k : keys) {
      EXPECT_EQ(shuffled.shard_of(k), reference.shard_of(k));
    }
  }
}

TEST(Shard, PlanBalancesCellCounts) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < 26; ++k) keys.push_back(k ^ 0xabcdef12345ull);
  const eval::ShardPlan plan(keys, 4);
  // 26 cells over 4 shards: two shards of 7, two of 6 — never worse.
  for (std::size_t s = 0; s < 4; ++s) {
    const std::size_t n = plan.keys_of(s).size();
    EXPECT_GE(n, 6u);
    EXPECT_LE(n, 7u);
  }
}

TEST(Shard, PlanRejectsBadInputs) {
  EXPECT_THROW(eval::ShardPlan({1, 2, 2}, 2), std::invalid_argument);
  EXPECT_THROW(eval::ShardPlan({1, 2, 3}, 0), std::invalid_argument);
  const eval::ShardPlan plan({1, 2, 3}, 2);
  EXPECT_THROW(plan.shard_of(99), std::out_of_range);
}

TEST(Shard, GridCellKeysMatchWhatSweepsJournal) {
  // grid_cell_keys must predict the exact keys run_grid_outcomes writes,
  // or a driver's expected set (and the merge) would drift from reality.
  const auto w = test::small_mixed_workload();
  sim::Machine m;
  m.nodes = 16;
  TempFile f("gridkeys");
  eval::SweepJournal journal(f.path());
  eval::ExperimentOptions opt;
  opt.journal = &journal;
  const auto grid =
      eval::run_grid_outcomes(m, core::WeightKind::kUnit, w, opt);
  ASSERT_TRUE(grid.all_ok());

  const auto expected = eval::grid_cell_keys(workload::fingerprint(w), m.nodes,
                                             core::WeightKind::kUnit);
  ASSERT_EQ(expected.size(), grid.cells.size());
  const auto cells = journal.snapshot();
  ASSERT_EQ(cells.size(), expected.size());
  auto sorted = expected;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].first, sorted[i]);
  }
}

TEST(Shard, ShardedGridIsDisjointUnionOfSerialGrid) {
  const auto w = test::small_mixed_workload();
  sim::Machine m;
  m.nodes = 16;
  const auto serial = eval::run_grid(m, core::WeightKind::kUnit, w);

  constexpr std::size_t kShards = 3;
  std::vector<int> owners(serial.size(), 0);
  for (std::size_t s = 0; s < kShards; ++s) {
    eval::ExperimentOptions opt;
    opt.shard = {s, kShards};
    const auto grid = eval::run_grid_outcomes(m, core::WeightKind::kUnit, w, opt);
    ASSERT_EQ(grid.cells.size(), serial.size());
    EXPECT_EQ(grid.failed(), 0u);
    EXPECT_GT(grid.skipped(), 0u);
    for (std::size_t i = 0; i < grid.cells.size(); ++i) {
      if (grid.cells[i].skipped) continue;
      ++owners[i];
      ASSERT_TRUE(grid.cells[i].ok);
      // Bit-identical to the serial cell, fingerprint and metrics alike.
      EXPECT_EQ(grid.cells[i].result.schedule_fnv, serial[i].schedule_fnv);
      EXPECT_EQ(grid.cells[i].result.art, serial[i].art);
      EXPECT_EQ(grid.cells[i].result.awrt, serial[i].awrt);
    }
  }
  // Disjoint cover: every cell ran on exactly one shard.
  for (int count : owners) EXPECT_EQ(count, 1);
}

TEST(Shard, RunGridRejectsActiveShard) {
  const auto w = test::small_mixed_workload();
  sim::Machine m;
  m.nodes = 16;
  eval::ExperimentOptions opt;
  opt.shard = {1, 2};
  EXPECT_THROW(eval::run_grid(m, core::WeightKind::kUnit, w, opt),
               std::invalid_argument);
}

/// Run one shard of the unit-weight grid into its own journal; returns the
/// journal path contents by reference through `journal_path`.
void run_shard_into(const workload::Workload& w, const sim::Machine& m,
                    std::size_t index, std::size_t count,
                    const std::string& journal_path) {
  eval::SweepJournal journal(journal_path);
  eval::ExperimentOptions opt;
  opt.journal = &journal;
  opt.shard = {index, count};
  const auto grid = eval::run_grid_outcomes(m, core::WeightKind::kUnit, w, opt);
  ASSERT_EQ(grid.failed(), 0u);
}

eval::MergeOptions merge_options_for(const workload::Workload& w,
                                     const sim::Machine& m,
                                     std::vector<std::string> shard_paths,
                                     const std::string& out_path) {
  eval::MergeOptions merge;
  merge.shard_paths = std::move(shard_paths);
  merge.expected_keys = eval::grid_cell_keys(workload::fingerprint(w), m.nodes,
                                             core::WeightKind::kUnit);
  merge.sweep_fingerprint =
      eval::sweep_fingerprint(workload::fingerprint(w), m.nodes);
  merge.out_path = out_path;
  return merge;
}

TEST(ShardMerge, SingleShardMergeIsByteIdenticalToSerialJournal) {
  const auto w = test::small_mixed_workload();
  sim::Machine m;
  m.nodes = 16;
  TempFile serial("merge-serial");
  run_shard_into(w, m, 0, 1, serial.path());

  TempFile merged("merge-out");
  const auto report = eval::merge_shard_journals(
      merge_options_for(w, m, {serial.path()}, merged.path()));
  EXPECT_TRUE(report.ok()) << report.describe();
  EXPECT_EQ(report.merged, 13u);
  // The strongest form of "merge changes nothing": the merged file's bytes
  // equal the journal an uninterrupted serial sweep wrote.
  EXPECT_EQ(slurp(merged.path()), slurp(serial.path()));
}

TEST(ShardMerge, TwoShardsMergeAndResumeBitIdentically) {
  const auto w = test::small_mixed_workload();
  sim::Machine m;
  m.nodes = 16;
  TempFile shard0("merge-s0");
  TempFile shard1("merge-s1");
  run_shard_into(w, m, 0, 2, shard0.path());
  run_shard_into(w, m, 1, 2, shard1.path());

  TempFile merged("merge-2out");
  const auto report = eval::merge_shard_journals(
      merge_options_for(w, m, {shard0.path(), shard1.path()}, merged.path()));
  ASSERT_TRUE(report.ok()) << report.describe();
  EXPECT_EQ(report.merged, 13u);

  // Resume the full grid from the merged journal: no cell re-simulates,
  // and the results match a fresh serial run bit for bit.
  eval::SweepJournal journal(merged.path());
  eval::ExperimentOptions opt;
  opt.journal = &journal;
  const auto grid = eval::run_grid_outcomes(m, core::WeightKind::kUnit, w, opt);
  ASSERT_TRUE(grid.all_ok());
  EXPECT_EQ(grid.resumed(), grid.cells.size());
  const auto serial = eval::run_grid(m, core::WeightKind::kUnit, w);
  const auto resumed = grid.results();
  ASSERT_EQ(resumed.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(resumed[i].schedule_fnv, serial[i].schedule_fnv);
    EXPECT_EQ(resumed[i].art, serial[i].art);
  }
}

TEST(ShardMerge, RejectsCellsDuplicatedAcrossShards) {
  const auto w = test::small_mixed_workload();
  sim::Machine m;
  m.nodes = 16;
  // Two "shards" that each ran the whole grid: every cell is duplicated.
  TempFile a("merge-dup-a");
  TempFile b("merge-dup-b");
  run_shard_into(w, m, 0, 1, a.path());
  run_shard_into(w, m, 0, 1, b.path());

  TempFile merged("merge-dup-out");
  const auto report = eval::merge_shard_journals(
      merge_options_for(w, m, {a.path(), b.path()}, merged.path()));
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.duplicates, 13u);
  EXPECT_EQ(report.merged, 13u);  // first copy of each still merges
}

TEST(ShardMerge, ReportsMissingCellsPerShard) {
  const auto w = test::small_mixed_workload();
  sim::Machine m;
  m.nodes = 16;
  TempFile shard0("merge-miss-s0");
  run_shard_into(w, m, 0, 2, shard0.path());
  // Shard 1 never ran; its journal does not exist.
  const std::string absent =
      std::string(::testing::TempDir()) + "merge-miss-absent.journal";
  std::remove(absent.c_str());

  auto options = merge_options_for(w, m, {shard0.path(), absent}, "");
  TempFile merged("merge-miss-out");
  options.out_path = merged.path();
  const eval::ShardPlan plan(options.expected_keys, 2);
  options.plan = &plan;
  const auto report = eval::merge_shard_journals(options);
  std::remove(absent.c_str());
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.missing.size(), plan.keys_of(1).size());
  ASSERT_EQ(report.missing_by_shard.size(), 2u);
  EXPECT_EQ(report.missing_by_shard[0], 0u);
  EXPECT_EQ(report.missing_by_shard[1], report.missing.size());
  EXPECT_NE(report.describe().find("missing"), std::string::npos);
}

TEST(ShardMerge, FlagsUnexpectedForeignCells) {
  const auto w = test::small_mixed_workload();
  sim::Machine m;
  m.nodes = 16;
  // The journal holds unit-weight cells, but the expected set asks for the
  // weighted grid: everything found is foreign, everything wanted missing.
  TempFile shard0("merge-foreign");
  run_shard_into(w, m, 0, 1, shard0.path());

  eval::MergeOptions options;
  options.shard_paths = {shard0.path()};
  options.expected_keys = eval::grid_cell_keys(
      workload::fingerprint(w), m.nodes, core::WeightKind::kEstimatedArea);
  options.sweep_fingerprint =
      eval::sweep_fingerprint(workload::fingerprint(w), m.nodes);
  TempFile merged("merge-foreign-out");
  options.out_path = merged.path();
  const auto report = eval::merge_shard_journals(options);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.unexpected, 13u);
  EXPECT_EQ(report.merged, 0u);
  EXPECT_EQ(report.missing.size(), 13u);
}

TEST(ShardWorker, RunsOwnedCellsThenResumes) {
  sim::Machine m;
  m.nodes = 16;
  TempFile journal("worker");
  eval::ShardWorkerConfig config;
  config.machine = m;
  config.weights = {core::WeightKind::kUnit, core::WeightKind::kEstimatedArea};
  config.journal_path = journal.path();
  config.shard = {0, 2};
  int materializations = 0;
  const auto make = [&materializations] {
    ++materializations;
    return test::small_mixed_workload();
  };

  // Each 13-cell grid is partitioned independently, and shard 0 of 2 takes
  // the 7 even key ranks: 7 unit + 7 weighted cells, 6 + 6 skipped.
  const auto first = eval::run_shard_worker(make, config);
  EXPECT_TRUE(first.ok());
  EXPECT_EQ(first.cells, 14u);
  EXPECT_EQ(first.ran, 14u);
  EXPECT_EQ(first.resumed, 0u);
  EXPECT_EQ(first.skipped, 12u);
  // One materialization serves both objectives.
  EXPECT_EQ(materializations, 1);

  // A relaunched worker (same journal) resumes everything, runs nothing.
  const auto second = eval::run_shard_worker(make, config);
  EXPECT_TRUE(second.ok());
  EXPECT_EQ(second.ran, 0u);
  EXPECT_EQ(second.resumed, 14u);
}

TEST(ShardCoordinator, PollStopDrainsWorkersGracefully) {
  // Two long-running "workers" (sleep 30): poll_stop fires on the first
  // loop iteration, the coordinator SIGTERMs both, and they exit within
  // the grace window — no restarts burned, report flagged as stopped.
  TempFile j0("drain0"), j1("drain1");
  eval::CoordinatorConfig coord;
  coord.shards.push_back({{"sleep", "30"}, {}, j0.path()});
  coord.shards.push_back({{"sleep", "30"}, {}, j1.path()});
  coord.restart_budget = 1;
  coord.poll_interval = std::chrono::milliseconds(10);
  coord.progress_interval = std::chrono::milliseconds(0);
  coord.drain_grace = std::chrono::milliseconds(5000);
  coord.poll_stop = [] { return true; };

  const auto t0 = std::chrono::steady_clock::now();
  const eval::CoordinatorReport report = eval::run_shard_coordinator(coord);
  const auto elapsed = std::chrono::steady_clock::now() - t0;

  EXPECT_TRUE(report.stopped_by_request);
  EXPECT_FALSE(report.all_ok());
  EXPECT_EQ(report.total_restarts(), 0u);
  ASSERT_EQ(report.shards.size(), 2u);
  for (const eval::ShardStatus& s : report.shards) {
    EXPECT_TRUE(s.last_exit.signaled);
    EXPECT_EQ(s.last_exit.code, SIGTERM);
  }
  // Far below the 30s the workers would otherwise run.
  EXPECT_LT(elapsed, std::chrono::seconds(10));
}

TEST(ShardCoordinator, StopAfterCompletionIsNotADrain) {
  // Workers that finish before poll_stop ever fires: a normal, ok report.
  TempFile j0("fast0");
  eval::CoordinatorConfig coord;
  coord.shards.push_back({{"true"}, {}, j0.path()});
  coord.poll_interval = std::chrono::milliseconds(5);
  coord.progress_interval = std::chrono::milliseconds(0);
  const eval::CoordinatorReport report = eval::run_shard_coordinator(coord);
  EXPECT_FALSE(report.stopped_by_request);
  EXPECT_TRUE(report.all_ok());
}

}  // namespace
}  // namespace jsched
