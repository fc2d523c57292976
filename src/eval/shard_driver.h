// Process-level runtime of a sharded sweep: the worker loop one shard
// process runs, and the coordinator loop that spawns, monitors and
// restarts N of them.
//
// The split keeps policy out of the binary: tools/sweepd delegates here
// and only decides how to build argv for a worker and which workload to
// materialize. The coordinator's knowledge of a worker is deliberately
// thin — an exit code and the growing shard journal
// (SweepJournal::count_cells) — so the same monitoring works for workers
// it did not spawn, e.g. shards launched by hand on other machines whose
// journals are merged later with merge_shard_journals.
#pragma once

#include <chrono>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "eval/shard.h"
#include "sim/machine.h"
#include "util/clock.h"
#include "util/subprocess.h"

namespace jsched::eval {

/// Conventional shard journal path: `<dir>/shard-<index>.journal`.
std::string shard_journal_path(const std::string& dir, std::size_t index);

/// One shard of a sweep: the cells of sweep_cells are ranked by key and
/// dealt round-robin (ShardPlan), and the cell with key-rank r belongs to
/// shard r % count. Every shard of a sweep — spawned by the coordinator in
/// tools/sweepd or launched by hand on another machine — and the merge
/// compute the identical assignment from the identical inputs, so the
/// shards are disjoint and cover the sweep with no coordination. The
/// default {0, 1} owns everything.
struct ShardSpec {
  std::size_t index = 0;
  std::size_t count = 1;

  /// Throws std::invalid_argument unless index < count and count >= 1.
  void validate() const;
};

/// One worker's whole assignment: the cells of sweep_cells that `shard`
/// owns, checkpointed into `journal_path`.
struct ShardWorkerConfig {
  sim::Machine machine;
  std::string journal_path;
  ShardSpec shard{};
  /// Base options for every cell; the journal is the worker's own (error
  /// policy, threads and the journal salt pass through).
  ExperimentOptions options{};
  /// Crash-injection hook for the restart/resume drill (0 = off): SIGKILL
  /// this process at the start of its (N+1)th fresh simulation, i.e. right
  /// after N cells were journaled. Armed only when the journal starts
  /// empty, so the restarted worker — which resumes those N cells — runs
  /// to completion instead of dying in a loop. Use N >= 1.
  std::size_t chaos_kill_after = 0;
  /// Progress sink (one summary line); may be empty.
  std::function<void(const std::string&)> log;
};

struct ShardWorkerReport {
  std::size_t cells = 0;    // cells this shard owns
  std::size_t ran = 0;      // freshly simulated this run
  std::size_t resumed = 0;  // restored from the shard journal
  std::size_t failed = 0;

  bool ok() const noexcept { return failed == 0; }
};

/// Run one shard worker to completion in this process: deal the plan over
/// sweep_cells and run the owned cells, in list order, through the cell
/// runner run_grid_outcomes uses, into one journal segment.
/// `make_workload` materializes the sweep's workload once.
/// Exceptions propagate: a worker process should let them kill it and
/// leave the journal for its replacement.
ShardWorkerReport run_shard_worker(
    const std::function<workload::Workload()>& make_workload,
    const ShardWorkerConfig& config);

/// How the coordinator launches (and relaunches) one shard.
struct ShardProcess {
  std::vector<std::string> argv;
  std::vector<std::pair<std::string, std::string>> extra_env;
  /// The shard's journal, polled for the cells-done heartbeat.
  std::string journal_path;
};

struct CoordinatorConfig {
  std::vector<ShardProcess> shards;
  /// Relaunches allowed per shard after a crash (nonzero exit or signal).
  /// A relaunched worker resumes from its journal, so each restart repays
  /// at most one in-flight cell.
  std::size_t restart_budget = 2;
  std::chrono::milliseconds poll_interval{100};
  /// Cadence of the journal-tail progress heartbeat (0 = silent).
  std::chrono::milliseconds progress_interval{2000};
  std::function<void(const std::string&)> log;
  /// Polled once per loop iteration (may be empty). Returning true starts
  /// a graceful drain: every live worker gets SIGTERM, the coordinator
  /// waits up to `drain_grace` for them to exit (their journals keep every
  /// completed cell), SIGKILLs stragglers, and returns with
  /// stopped_by_request set. tools/sweepd wires this to SignalDrain so ^C
  /// produces a summary instead of a mess of orphans.
  std::function<bool()> poll_stop;
  /// How long a drain waits for SIGTERM'd workers before SIGKILL.
  std::chrono::milliseconds drain_grace{3000};
  /// Time source for poll sleeps and the progress/drain timers (null = the
  /// real clock). Tests drive the loop with a util::ManualClock.
  util::Clock* clock = nullptr;
};

struct ShardStatus {
  bool ok = false;
  std::size_t restarts = 0;
  util::ExitStatus last_exit{};
  /// Complete journal records at the final poll.
  std::size_t cells_done = 0;
};

struct CoordinatorReport {
  std::vector<ShardStatus> shards;
  /// True when poll_stop ended the sweep early: still-running shards were
  /// drained (SIGTERM, grace, SIGKILL) and are reported not-ok. The caller
  /// should exit nonzero — the sweep is incomplete, though every journaled
  /// cell survives for a resumed run.
  bool stopped_by_request = false;

  bool all_ok() const {
    for (const ShardStatus& s : shards) {
      if (!s.ok) return false;
    }
    return true;
  }
  std::size_t total_restarts() const {
    std::size_t n = 0;
    for (const ShardStatus& s : shards) n += s.restarts;
    return n;
  }
};

/// Spawn every shard, babysit them to completion (restart-on-crash within
/// the budget), and report per-shard health. Does not merge journals —
/// callers follow up with merge_shard_journals so the merge also covers
/// shards this coordinator never ran.
CoordinatorReport run_shard_coordinator(const CoordinatorConfig& config);

}  // namespace jsched::eval
