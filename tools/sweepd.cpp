// sweepd: sharded multi-process sweep driver for the paper's full grid.
//
// One sweep = the 13-configuration grid for both objectives (26 cells,
// eval::sweep_cells) over the CTC-like trace, deterministically
// partitioned across N worker processes by cell key (eval/shard.h). Each worker checkpoints its cells
// into its own journal; the coordinator monitors workers through those
// journals, restarts crashed ones, and finally merges the shard journals
// into one file that is byte-identical to what an uninterrupted
// single-process threads=1 sweep would have written.
//
// Usage:
//   sweepd run   --shards N --journal-dir DIR [--out grid.json]
//                [--merged-journal PATH] [--restarts R]
//                [--chaos-shard I --chaos-after K]
//   sweepd worker --shards N --shard-index I --journal PATH
//   sweepd merge  --shards N --journal-dir DIR [--out grid.json]
//                [--merged-journal PATH]
//
// `run` spawns N `worker` children of this same binary on this machine.
// To scale past one machine, launch `sweepd worker` by hand on each host
// with the same workload knobs (the partition needs no coordination),
// collect the shard journals on one filesystem, and `sweepd merge` them.
//
// Workload/environment knobs (same meaning as the benches):
//   JSCHED_CTC_JOBS, JSCHED_SEED, JSCHED_MACHINE, JSCHED_JOBS,
//   JSCHED_THREADS (per worker), JSCHED_ERROR_POLICY,
//   JSCHED_JOURNAL_FSYNC (fsync shard journals per record),
//   JSCHED_SHARD_CHAOS=K (worker: SIGKILL self after K fresh cells when
//   its journal started empty — the restart drill; `run` sets it on one
//   worker via --chaos-shard/--chaos-after).
//
// Exit codes: 0 sweep complete and merge clean; 1 cells failed or merge
// found gaps (the merged journal still holds every finished cell, so a
// re-run resumes rather than restarts); 2 usage error.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "eval/journal.h"
#include "eval/outcome.h"
#include "eval/reporting.h"
#include "eval/shard.h"
#include "eval/shard_driver.h"
#include "sim/machine.h"
#include "util/env.h"
#include "util/number.h"
#include "util/signals.h"
#include "util/subprocess.h"
#include "workload/ctc_model.h"
#include "workload/transforms.h"
#include "workload/workload.h"

namespace {

using namespace jsched;

int usage() {
  std::fprintf(
      stderr,
      "usage: sweepd run    --shards N --journal-dir DIR [--out grid.json]\n"
      "                     [--merged-journal PATH] [--restarts R]\n"
      "                     [--chaos-shard I --chaos-after K]\n"
      "       sweepd worker --shards N --shard-index I --journal PATH\n"
      "       sweepd merge  --shards N --journal-dir DIR [--out grid.json]\n"
      "                     [--merged-journal PATH]\n");
  return 2;
}

struct Cli {
  std::string mode;
  std::size_t shards = 1;
  std::size_t shard_index = 0;
  std::string journal;      // worker: this shard's journal
  std::string journal_dir;  // run/merge: directory of shard journals
  std::string merged_journal;
  std::string out_json;
  std::size_t restarts = 2;
  std::size_t chaos_shard = static_cast<std::size_t>(-1);
  std::size_t chaos_after = 0;
};

std::optional<Cli> parse(const std::vector<std::string>& args) {
  if (args.empty()) return std::nullopt;
  Cli cli;
  cli.mode = args[0];
  if (cli.mode != "run" && cli.mode != "worker" && cli.mode != "merge") {
    return std::nullopt;
  }
  for (std::size_t i = 1; i < args.size(); i += 2) {
    if (i + 1 >= args.size()) return std::nullopt;
    const std::string& flag = args[i];
    const std::string& value = args[i + 1];
    bool ok = true;  // false: a numeric value that does not parse
    if (flag == "--shards") {
      ok = util::parse_number(value, cli.shards);
    } else if (flag == "--shard-index") {
      ok = util::parse_number(value, cli.shard_index);
    } else if (flag == "--journal") {
      cli.journal = value;
    } else if (flag == "--journal-dir") {
      cli.journal_dir = value;
    } else if (flag == "--merged-journal") {
      cli.merged_journal = value;
    } else if (flag == "--out") {
      cli.out_json = value;
    } else if (flag == "--restarts") {
      ok = util::parse_number(value, cli.restarts);
    } else if (flag == "--chaos-shard") {
      ok = util::parse_number(value, cli.chaos_shard);
    } else if (flag == "--chaos-after") {
      ok = util::parse_number(value, cli.chaos_after);
    } else {
      return std::nullopt;
    }
    if (!ok) return std::nullopt;
  }
  const bool needs_dir = cli.mode == "run" || cli.mode == "merge";
  if (needs_dir && cli.journal_dir.empty()) return std::nullopt;
  if (cli.mode == "worker" && cli.journal.empty()) return std::nullopt;
  return cli;
}

struct SweepSetup {
  std::size_t ctc_jobs;
  std::uint64_t seed;
  sim::Machine machine;
  std::size_t threads;
};

SweepSetup setup_from_env() {
  SweepSetup s;
  s.ctc_jobs = static_cast<std::size_t>(util::env_int("JSCHED_CTC_JOBS", 79'164));
  s.seed = static_cast<std::uint64_t>(util::env_int("JSCHED_SEED", 19'990'412));
  s.machine.nodes = static_cast<int>(util::env_int("JSCHED_MACHINE", 256));
  s.threads = static_cast<std::size_t>(util::env_int("JSCHED_THREADS", 1));
  return s;
}

/// The sweep's workload — identical construction to bench_common's
/// ctc_workload (generate, trim to machine, optional JSCHED_JOBS cap), so
/// sharded runs reproduce the committed BENCH_grid.json fingerprints.
workload::Workload make_sweep_workload(const SweepSetup& s) {
  workload::CtcModelParams params;
  params.job_count = s.ctc_jobs;
  workload::Workload raw = workload::generate_ctc(params, s.seed);
  workload::Workload trimmed =
      workload::trim_to_machine(raw, s.machine.nodes, nullptr);
  const auto cap = static_cast<std::size_t>(util::env_int("JSCHED_JOBS", 0));
  if (cap != 0 && cap < trimmed.size()) {
    return workload::take_prefix(trimmed, cap);
  }
  return trimmed;
}

eval::ExperimentOptions options_from_env(const SweepSetup& s) {
  eval::ExperimentOptions opt;
  opt.threads = s.threads;
  if (const auto policy = util::env_string("JSCHED_ERROR_POLICY")) {
    opt.error_policy = eval::error_policy_from_string(*policy);
  } else {
    // Workers default to isolate: one sick cell should not take down the
    // shard — the coordinator would just restart it into the same wall.
    opt.error_policy = eval::ErrorPolicy::kIsolate;
  }
  return opt;
}

int run_worker(const Cli& cli) {
  // A shard launched by hand may name a journal in a directory that does
  // not exist yet, as `run` may name a --journal-dir.
  const std::filesystem::path parent =
      std::filesystem::path(cli.journal).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  const SweepSetup s = setup_from_env();
  eval::ShardWorkerConfig config;
  config.machine = s.machine;
  config.journal_path = cli.journal;
  config.shard = {cli.shard_index, cli.shards};
  config.options = options_from_env(s);
  config.chaos_kill_after =
      static_cast<std::size_t>(util::env_int("JSCHED_SHARD_CHAOS", 0));
  config.log = [](const std::string& line) {
    std::fprintf(stderr, "[worker] %s\n", line.c_str());
  };
  const eval::ShardWorkerReport report =
      eval::run_shard_worker([&s] { return make_sweep_workload(s); }, config);
  std::fprintf(stderr,
               "[worker] shard %zu/%zu: %zu cells (%zu ran, %zu resumed, "
               "%zu failed)\n",
               cli.shard_index, cli.shards, report.cells, report.ran,
               report.resumed, report.failed);
  return report.ok() ? 0 : 1;
}

/// Merge the shard journals and verify the result by *resuming* the full
/// grid from the merged journal: every cell must come back attempts == 0,
/// and the resumed RunResults feed the optional grid JSON — so the JSON's
/// fingerprints are, by construction, what any future resume would see.
int merge_and_report(const Cli& cli, const SweepSetup& s,
                     const workload::Workload& w) {
  const std::uint64_t workload_fnv = workload::fingerprint(w);
  eval::MergeOptions merge;
  for (std::size_t i = 0; i < cli.shards; ++i) {
    merge.shard_paths.push_back(
        eval::shard_journal_path(cli.journal_dir, i));
  }
  // The workers' list: the merge deals their plan over these keys.
  for (const eval::SweepCell& cell :
       eval::sweep_cells(workload_fnv, s.machine.nodes)) {
    merge.expected_keys.push_back(cell.key);
  }
  merge.sweep_fingerprint =
      eval::sweep_fingerprint(workload_fnv, s.machine.nodes);
  merge.out_path = cli.merged_journal.empty()
                       ? cli.journal_dir + "/merged.journal"
                       : cli.merged_journal;
  const eval::MergeReport report = eval::merge_shard_journals(merge);
  std::printf("merge: %s -> %s\n", report.describe().c_str(),
              merge.out_path.c_str());
  if (!report.ok()) return 1;

  eval::SweepJournal merged(merge.out_path);
  eval::ExperimentOptions opt = options_from_env(s);
  opt.journal = &merged;
  std::vector<std::vector<eval::RunResult>> results;
  std::vector<double> walls;
  for (core::WeightKind weight :
       {core::WeightKind::kUnit, core::WeightKind::kEstimatedArea}) {
    const auto t0 = std::chrono::steady_clock::now();
    const eval::GridResult grid =
        eval::run_grid_outcomes(s.machine, weight, w, opt);
    walls.push_back(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
    if (grid.resumed() != grid.cells.size()) {
      std::fprintf(stderr,
                   "error: merged journal resumed %zu/%zu cells — merge is "
                   "not a complete checkpoint\n",
                   grid.resumed(), grid.cells.size());
      return 1;
    }
    results.push_back(grid.results());
  }
  std::printf("verify: all %zu cells resume from the merged journal\n",
              results[0].size() + results[1].size());
  if (!cli.out_json.empty()) {
    // wall_seconds here time the resume pass, not the sweep (the sweep's
    // wall belongs to the coordinator log); the comparable payload is the
    // schedule fingerprints.
    eval::GridJsonMeta meta;
    meta.jobs = s.ctc_jobs;
    meta.machine_nodes = s.machine.nodes;
    meta.seed = s.seed;
    meta.threads = s.threads;
    eval::write_grid_json(cli.out_json, meta, results[0], walls[0],
                          results[1], walls[1]);
  }
  return 0;
}

int run_coordinator(const Cli& cli) {
  std::filesystem::create_directories(cli.journal_dir);
  const std::string self = util::self_exe_path();

  // ^C / SIGTERM: forward to the workers, give them a grace period to
  // journal their in-flight cell, then summarize and exit nonzero. The
  // journals keep everything finished, so a rerun resumes, not restarts.
  util::SignalDrain drain;

  eval::CoordinatorConfig coord;
  coord.restart_budget = cli.restarts;
  coord.poll_stop = [] { return util::SignalDrain::drain_requested(); };
  coord.log = [](const std::string& line) {
    std::fprintf(stderr, "[sweepd] %s\n", line.c_str());
  };
  for (std::size_t i = 0; i < cli.shards; ++i) {
    eval::ShardProcess p;
    p.journal_path = eval::shard_journal_path(cli.journal_dir, i);
    p.argv = {self,
              "worker",
              "--shards",
              std::to_string(cli.shards),
              "--shard-index",
              std::to_string(i),
              "--journal",
              p.journal_path};
    if (i == cli.chaos_shard && cli.chaos_after > 0) {
      p.extra_env.emplace_back("JSCHED_SHARD_CHAOS",
                               std::to_string(cli.chaos_after));
    }
    coord.shards.push_back(std::move(p));
  }

  const auto t0 = std::chrono::steady_clock::now();
  const eval::CoordinatorReport report = eval::run_shard_coordinator(coord);
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  std::printf("sweep: %zu shards in %.1fs, %zu restart%s\n", cli.shards, wall,
              report.total_restarts(),
              report.total_restarts() == 1 ? "" : "s");
  if (report.stopped_by_request) {
    std::size_t done = 0;
    for (const eval::ShardStatus& st : report.shards) done += st.cells_done;
    std::fprintf(stderr,
                 "[sweepd] interrupted by signal %d: %zu cell(s) journaled "
                 "across %zu shard(s); rerun resumes from the journals\n",
                 util::SignalDrain::last_signal(), done, cli.shards);
    return 1;
  }
  // Merge even when a shard gave up: the merged journal then carries every
  // finished cell and the report names exactly what is missing per shard.
  const SweepSetup s = setup_from_env();
  const workload::Workload w = make_sweep_workload(s);
  const int merge_rc = merge_and_report(cli, s, w);
  return report.all_ok() && merge_rc == 0 ? 0 : 1;
}

int run_merge(const Cli& cli) {
  const SweepSetup s = setup_from_env();
  const workload::Workload w = make_sweep_workload(s);
  return merge_and_report(cli, s, w);
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  const std::optional<Cli> cli = parse(args);
  if (!cli.has_value()) return usage();
  try {
    if (cli->mode == "worker") return run_worker(*cli);
    if (cli->mode == "merge") return run_merge(*cli);
    return run_coordinator(*cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweepd: %s\n", e.what());
    return 1;
  }
}
