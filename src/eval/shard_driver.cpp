#include "eval/shard_driver.h"

#include <csignal>
#include <stdexcept>
#include <thread>
#include <utility>

#include "eval/internal.h"
#include "eval/journal.h"
#include "eval/reporting.h"

namespace jsched::eval {

std::string shard_journal_path(const std::string& dir, std::size_t index) {
  return dir + "/shard-" + std::to_string(index) + ".journal";
}

void ShardSpec::validate() const {
  if (count == 0) {
    throw std::invalid_argument("ShardSpec: count must be >= 1");
  }
  if (index >= count) {
    throw std::invalid_argument("ShardSpec: index " + std::to_string(index) +
                                " out of range for " + std::to_string(count) +
                                " shard" + (count == 1 ? "" : "s"));
  }
}

ShardWorkerReport run_shard_worker(
    const std::function<workload::Workload()>& make_workload,
    const ShardWorkerConfig& config) {
  config.shard.validate();
  if (config.journal_path.empty()) {
    throw std::invalid_argument("run_shard_worker: journal_path required");
  }
  SweepJournal journal(config.journal_path);

  ExperimentOptions opts = config.options;
  opts.journal = &journal;

  // Chaos kill: arm only on a virgin journal, so the relaunched worker
  // (which finds the records its predecessor left) runs clean instead of
  // dying on the same cell forever. on_run fires at the *start* of each
  // fresh simulation and never for resumed cells, so with serial threads
  // the raise() lands exactly after `chaos_kill_after` journaled records.
  std::size_t fresh_started = 0;
  if (config.chaos_kill_after > 0 && journal.loaded() == 0) {
    const auto inner = opts.on_run;
    opts.on_run = [&fresh_started, kill_after = config.chaos_kill_after,
                   inner](const std::string& name) {
      if (++fresh_started > kill_after) std::raise(SIGKILL);
      if (inner) inner(name);
    };
  }

  const workload::Workload workload = make_workload();
  const std::uint64_t workload_fnv = workload::fingerprint(workload);
  const std::vector<SweepCell> sweep =
      sweep_cells(workload_fnv, config.machine.nodes, opts.journal_salt);
  std::vector<std::uint64_t> keys;
  for (const SweepCell& cell : sweep) keys.push_back(cell.key);
  const ShardPlan plan(std::move(keys), config.shard.count);
  std::vector<SweepCell> mine;
  for (const SweepCell& cell : sweep) {
    if (plan.shard_of(cell.key) == config.shard.index) mine.push_back(cell);
  }

  const GridResult grid =
      detail::run_cells(config.machine, workload, workload_fnv, mine, opts);
  ShardWorkerReport report;
  report.cells = grid.cells.size();
  report.resumed = grid.resumed();
  report.failed = grid.failed();
  for (const RunOutcome& c : grid.cells) {
    if (c.ok && c.attempts >= 1) ++report.ran;
  }
  if (config.log) {
    config.log("shard " + std::to_string(config.shard.index) + "/" +
               std::to_string(config.shard.count) + ": " +
               failure_summary(grid));
  }
  return report;
}

CoordinatorReport run_shard_coordinator(const CoordinatorConfig& config) {
  if (config.shards.empty()) {
    throw std::invalid_argument("run_shard_coordinator: no shards");
  }
  const std::size_t n = config.shards.size();
  const auto say = [&config](const std::string& line) {
    if (config.log) config.log(line);
  };
  const auto cells_done = [&config](std::size_t i) {
    return SweepJournal::count_cells(config.shards[i].journal_path);
  };

  CoordinatorReport report;
  report.shards.resize(n);
  std::vector<std::optional<util::Subprocess>> procs(n);
  const auto launch = [&](std::size_t i) {
    procs[i] = util::Subprocess::spawn(config.shards[i].argv,
                                       config.shards[i].extra_env);
    say("shard " + std::to_string(i) + ": pid " +
        std::to_string(procs[i]->pid()));
  };
  for (std::size_t i = 0; i < n; ++i) launch(i);

  util::Clock& clock =
      config.clock != nullptr ? *config.clock : util::real_clock();

  // Graceful drain: SIGTERM everyone still running, give them drain_grace
  // to flush and exit, SIGKILL the rest. Journals survive either way; the
  // drained shards stay not-ok so the caller knows the sweep is partial.
  const auto drain = [&](std::size_t& live_count) {
    report.stopped_by_request = true;
    say("stop requested: draining " + std::to_string(live_count) +
        " live shard(s)");
    for (std::size_t i = 0; i < n; ++i) {
      if (procs[i].has_value()) procs[i]->kill(SIGTERM);
    }
    const auto deadline = clock.now() + config.drain_grace;
    while (live_count > 0 && clock.now() < deadline) {
      clock.sleep_for(config.poll_interval);
      for (std::size_t i = 0; i < n; ++i) {
        if (!procs[i].has_value()) continue;
        const std::optional<util::ExitStatus> status = procs[i]->poll();
        if (!status.has_value()) continue;
        report.shards[i].last_exit = *status;
        procs[i].reset();
        --live_count;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!procs[i].has_value()) continue;
      say("shard " + std::to_string(i) + ": unresponsive after " +
          std::to_string(config.drain_grace.count()) + "ms, killing");
      procs[i]->kill();
      report.shards[i].last_exit = procs[i]->wait();
      procs[i].reset();
      --live_count;
    }
  };

  std::size_t live = n;
  auto last_beat = clock.now();
  while (live > 0) {
    if (config.poll_stop && config.poll_stop()) {
      drain(live);
      break;
    }
    clock.sleep_for(config.poll_interval);
    for (std::size_t i = 0; i < n; ++i) {
      if (!procs[i].has_value()) continue;
      const std::optional<util::ExitStatus> status = procs[i]->poll();
      if (!status.has_value()) continue;
      procs[i].reset();
      --live;
      ShardStatus& s = report.shards[i];
      s.last_exit = *status;
      if (status->success()) {
        s.ok = true;
        say("shard " + std::to_string(i) + ": done (" +
            std::to_string(cells_done(i)) + " cells journaled)");
      } else if (s.restarts < config.restart_budget) {
        ++s.restarts;
        say("shard " + std::to_string(i) + ": " + status->describe() +
            "; restarting (" + std::to_string(s.restarts) + "/" +
            std::to_string(config.restart_budget) + "), will resume " +
            std::to_string(cells_done(i)) + " journaled cells");
        launch(i);
        ++live;
      } else {
        say("shard " + std::to_string(i) + ": " + status->describe() +
            "; restart budget exhausted, giving up on this shard");
      }
    }
    const auto now = clock.now();
    if (live > 0 && config.progress_interval.count() > 0 &&
        now - last_beat >= config.progress_interval) {
      last_beat = now;
      std::string beat = "progress:";
      for (std::size_t i = 0; i < n; ++i) {
        beat += " shard" + std::to_string(i) + "=" +
                std::to_string(cells_done(i));
      }
      say(beat);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    report.shards[i].cells_done = cells_done(i);
  }
  return report;
}

}  // namespace jsched::eval
