// Sharded sweeps: the one 26-cell list every participant derives
// (eval::sweep_cells), the deterministic cell partition (eval::ShardPlan),
// the in-process worker loop, and journal merging with its partition
// invariants. The load-bearing property throughout: how a sweep is
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

/// How many of `keys` `plan` deals to `shard`.
std::size_t keys_on(const eval::ShardPlan& plan,
                    const std::vector<std::uint64_t>& keys, std::size_t shard) {
  return static_cast<std::size_t>(
      std::count_if(keys.begin(), keys.end(), [&](std::uint64_t k) {
        return plan.shard_of(k) == shard;
      }));
}

TEST(Shard, SpecValidates) {
  EXPECT_NO_THROW((eval::ShardSpec{0, 1}).validate());
  EXPECT_NO_THROW((eval::ShardSpec{3, 4}).validate());
  EXPECT_THROW((eval::ShardSpec{0, 0}).validate(), std::invalid_argument);
  EXPECT_THROW((eval::ShardSpec{2, 2}).validate(), std::invalid_argument);
}

TEST(Shard, PlanDealsRoundRobinByKeyRank) {
  // Sorted rank r -> shard r % count, independent of input order.
  const eval::ShardPlan plan({50, 10, 40, 20, 30}, 2);
  EXPECT_EQ(plan.shard_of(10), 0u);
  EXPECT_EQ(plan.shard_of(20), 1u);
  EXPECT_EQ(plan.shard_of(30), 0u);
  EXPECT_EQ(plan.shard_of(40), 1u);
  EXPECT_EQ(plan.shard_of(50), 0u);
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
    const std::size_t n = keys_on(plan, keys, s);
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

std::vector<std::uint64_t> cell_keys(
    const std::vector<eval::SweepCell>& cells) {
  std::vector<std::uint64_t> keys;
  for (const eval::SweepCell& cell : cells) keys.push_back(cell.key);
  return keys;
}

/// The sweep's cells for `w` on `m`: what every worker and the merge deal.
std::vector<eval::SweepCell> sweep_of(const workload::Workload& w,
                                      const sim::Machine& m) {
  return eval::sweep_cells(workload::fingerprint(w), m.nodes);
}

/// Run both objectives' grids serially into one journal, as a
/// single-process sweep does. Scheduler CPU is not measured here or in
/// run_shard_into, so equal work journals equal bytes.
void run_serial_sweep(const workload::Workload& w, const sim::Machine& m,
                      const std::string& journal_path) {
  eval::SweepJournal journal(journal_path);
  eval::ExperimentOptions opt;
  opt.measure_cpu = false;
  opt.journal = &journal;
  for (core::WeightKind weight :
       {core::WeightKind::kUnit, core::WeightKind::kEstimatedArea}) {
    ASSERT_TRUE(eval::run_grid_outcomes(m, weight, w, opt).all_ok());
  }
}

TEST(Shard, GridCellKeysMatchWhatSweepsJournal) {
  // sweep_cells must list both grids in paper_grid order under the exact
  // keys run_grid_outcomes writes, or the workers' plan and the merge's
  // expected set would drift from reality.
  const auto w = test::small_mixed_workload();
  sim::Machine m;
  m.nodes = 16;
  const auto cells = sweep_of(w, m);
  auto specs = core::paper_grid(core::WeightKind::kUnit);
  for (const auto& spec : core::paper_grid(core::WeightKind::kEstimatedArea)) {
    specs.push_back(spec);
  }
  ASSERT_EQ(cells.size(), 26u);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].spec.display_name(), specs[i].display_name());
    EXPECT_EQ(cells[i].spec.weight, specs[i].weight);
  }

  TempFile f("gridkeys");
  run_serial_sweep(w, m, f.path());
  const auto journaled = eval::SweepJournal(f.path()).snapshot();
  auto sorted = cell_keys(cells);
  std::sort(sorted.begin(), sorted.end());
  ASSERT_EQ(journaled.size(), sorted.size());
  for (std::size_t i = 0; i < journaled.size(); ++i) {
    EXPECT_EQ(journaled[i].first, sorted[i]);
  }
}

/// Run shard `index` of `count` over the whole sweep through the worker
/// loop, into its own journal.
eval::ShardWorkerReport run_shard_into(const workload::Workload& w,
                                       const sim::Machine& m,
                                       std::size_t index, std::size_t count,
                                       const std::string& journal_path) {
  eval::ShardWorkerConfig config;
  config.machine = m;
  config.journal_path = journal_path;
  config.shard = {index, count};
  config.options.measure_cpu = false;
  const auto report = eval::run_shard_worker([&w] { return w; }, config);
  EXPECT_TRUE(report.ok());
  return report;
}

TEST(Shard, ShardedGridIsDisjointUnionOfSerialGrid) {
  const auto w = test::small_mixed_workload();
  sim::Machine m;
  m.nodes = 16;
  const auto unit = eval::run_grid(m, core::WeightKind::kUnit, w);
  const auto area = eval::run_grid(m, core::WeightKind::kEstimatedArea, w);
  const auto cells = sweep_of(w, m);
  ASSERT_EQ(cells.size(), unit.size() + area.size());

  constexpr std::size_t kShards = 3;
  std::vector<int> owners(cells.size(), 0);
  for (std::size_t s = 0; s < kShards; ++s) {
    TempFile f("sharded-grid");
    const auto report = run_shard_into(w, m, s, kShards, f.path());
    EXPECT_EQ(report.ran, report.cells);
    const auto journaled = eval::SweepJournal(f.path()).snapshot();
    EXPECT_EQ(journaled.size(), report.cells);
    for (const auto& [key, result] : journaled) {
      const auto cell = std::find_if(
          cells.begin(), cells.end(),
          [key = key](const eval::SweepCell& c) { return c.key == key; });
      ASSERT_NE(cell, cells.end());
      const std::size_t i = static_cast<std::size_t>(cell - cells.begin());
      ++owners[i];
      // Bit-identical to run_grid's cell for its objective, fingerprint
      // and metrics alike.
      const eval::RunResult& serial =
          i < unit.size() ? unit[i] : area[i - unit.size()];
      EXPECT_EQ(result.spec.display_name(), serial.spec.display_name());
      EXPECT_EQ(result.schedule_fnv, serial.schedule_fnv);
      EXPECT_EQ(result.art, serial.art);
      EXPECT_EQ(result.awrt, serial.awrt);
    }
  }
  // Disjoint cover: every cell ran on exactly one shard.
  for (int count : owners) EXPECT_EQ(count, 1);
}

eval::MergeOptions merge_options_for(const workload::Workload& w,
                                     const sim::Machine& m,
                                     std::vector<std::string> shard_paths,
                                     const std::string& out_path) {
  eval::MergeOptions merge;
  merge.shard_paths = std::move(shard_paths);
  merge.expected_keys = cell_keys(sweep_of(w, m));
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
  run_serial_sweep(w, m, serial.path());
  TempFile shard("merge-one-shard");
  run_shard_into(w, m, 0, 1, shard.path());
  // One shard runs the whole list in order, in one segment: the journal a
  // serial sweep of the two grids writes.
  EXPECT_EQ(slurp(shard.path()), slurp(serial.path()));

  TempFile merged("merge-out");
  const auto report = eval::merge_shard_journals(
      merge_options_for(w, m, {shard.path()}, merged.path()));
  EXPECT_TRUE(report.ok()) << report.describe();
  EXPECT_EQ(report.merged, 26u);
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
  EXPECT_EQ(report.merged, 26u);

  // Resume both grids from the merged journal: no cell re-simulates, and
  // the results match a fresh serial run bit for bit.
  eval::SweepJournal journal(merged.path());
  eval::ExperimentOptions opt;
  opt.journal = &journal;
  for (core::WeightKind weight :
       {core::WeightKind::kUnit, core::WeightKind::kEstimatedArea}) {
    const auto grid = eval::run_grid_outcomes(m, weight, w, opt);
    ASSERT_TRUE(grid.all_ok());
    EXPECT_EQ(grid.resumed(), grid.cells.size());
    const auto serial = eval::run_grid(m, weight, w);
    const auto resumed = grid.results();
    ASSERT_EQ(resumed.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(resumed[i].schedule_fnv, serial[i].schedule_fnv);
      EXPECT_EQ(resumed[i].art, serial[i].art);
      EXPECT_EQ(resumed[i].awrt, serial[i].awrt);
    }
  }
}

TEST(ShardMerge, RejectsCellsDuplicatedAcrossShards) {
  const auto w = test::small_mixed_workload();
  sim::Machine m;
  m.nodes = 16;
  // Two "shards" that each ran the whole sweep: every cell is duplicated.
  TempFile a("merge-dup-a");
  TempFile b("merge-dup-b");
  run_shard_into(w, m, 0, 1, a.path());
  run_shard_into(w, m, 0, 1, b.path());

  TempFile merged("merge-dup-out");
  const auto report = eval::merge_shard_journals(
      merge_options_for(w, m, {a.path(), b.path()}, merged.path()));
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.duplicates, 26u);
  EXPECT_EQ(report.merged, 26u);  // first copy of each still merges
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

  TempFile merged("merge-miss-out");
  const auto options =
      merge_options_for(w, m, {shard0.path(), absent}, merged.path());
  const auto report = eval::merge_shard_journals(options);
  std::remove(absent.c_str());
  const eval::ShardPlan plan(options.expected_keys, 2);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.missing.size(), keys_on(plan, options.expected_keys, 1));
  ASSERT_EQ(report.missing_by_shard.size(), 2u);
  EXPECT_EQ(report.missing_by_shard[0], 0u);
  EXPECT_EQ(report.missing_by_shard[1], report.missing.size());
  EXPECT_EQ(report.describe(), "13 cells merged, 13 missing (shard 1: 13)");
}

TEST(ShardMerge, AttributesMissingCellsToTheirOwners) {
  // A partial sweep: shard 0 of 3 ran alone. The merge deals the workers'
  // plan over the same list, so every missing cell belongs to shard 1 or 2
  // and each absent shard is charged exactly the cells it owns.
  const auto w = test::small_mixed_workload();
  sim::Machine m;
  m.nodes = 16;
  TempFile shard0("owners-s0");
  const auto worker = run_shard_into(w, m, 0, 3, shard0.path());
  std::vector<std::string> paths = {shard0.path()};
  for (const char* stem : {"owners-absent1", "owners-absent2"}) {
    paths.push_back(std::string(::testing::TempDir()) + stem + ".journal");
    std::remove(paths.back().c_str());
  }

  TempFile merged("owners-out");
  const auto options = merge_options_for(w, m, paths, merged.path());
  const auto report = eval::merge_shard_journals(options);
  EXPECT_EQ(report.merged, worker.cells);
  EXPECT_EQ(report.missing.size(), 26u - worker.cells);
  ASSERT_EQ(report.missing_by_shard.size(), 3u);
  EXPECT_EQ(report.missing_by_shard[0], 0u) << report.describe();
  const eval::ShardPlan plan(options.expected_keys, 3);
  EXPECT_EQ(report.missing_by_shard[1],
            keys_on(plan, options.expected_keys, 1));
  EXPECT_EQ(report.missing_by_shard[2],
            keys_on(plan, options.expected_keys, 2));
}

TEST(ShardMerge, FlagsUnexpectedForeignCells) {
  const auto w = test::small_mixed_workload();
  sim::Machine m;
  m.nodes = 16;
  // The journal holds the sweep on 16 nodes, but the expected set asks for
  // the one on 32: everything found is foreign, everything wanted missing.
  TempFile shard0("merge-foreign");
  run_shard_into(w, m, 0, 1, shard0.path());

  sim::Machine wider;
  wider.nodes = 32;
  TempFile merged("merge-foreign-out");
  const auto report = eval::merge_shard_journals(
      merge_options_for(w, wider, {shard0.path()}, merged.path()));
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.unexpected, 26u);
  EXPECT_EQ(report.merged, 0u);
  EXPECT_EQ(report.missing.size(), 26u);
}

TEST(ShardWorker, RunsOwnedCellsThenResumes) {
  sim::Machine m;
  m.nodes = 16;
  TempFile journal("worker");
  eval::ShardWorkerConfig config;
  config.machine = m;
  config.journal_path = journal.path();
  config.shard = {0, 2};
  int materializations = 0;
  const auto make = [&materializations] {
    ++materializations;
    return test::small_mixed_workload();
  };

  // The plan deals the one 26-cell list, so shard 0 of 2 takes the 13
  // even key ranks across both objectives.
  const auto first = eval::run_shard_worker(make, config);
  EXPECT_TRUE(first.ok());
  EXPECT_EQ(first.cells, 13u);
  EXPECT_EQ(first.ran, 13u);
  EXPECT_EQ(first.resumed, 0u);
  // One materialization serves both objectives.
  EXPECT_EQ(materializations, 1);

  // A relaunched worker (same journal) resumes everything, runs nothing.
  const auto second = eval::run_shard_worker(make, config);
  EXPECT_TRUE(second.ok());
  EXPECT_EQ(second.ran, 0u);
  EXPECT_EQ(second.resumed, 13u);
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
