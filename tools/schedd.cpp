// schedd: the simulator core as a long-lived scheduling daemon.
//
// Wraps serve::serve() behind a command line: pick a scheduler from the
// paper's grid, pick a submission feed, pick a pacing speed, and the
// daemon makes the exact decisions the offline simulator would — serving
// a replayed trace produces a bit-identical schedule fingerprint, which
// `replay --verify-offline` checks on every run.
//
// Modes:
//   schedd serve   --spec FCFS+EASY [--feed stdin|tail:FILE|tcp:PORT]
//                  [--machine N] [--speed S] [--queue Q]
//                  [--overload block|shed] [--max-backlog B]
//                  [--report-interval-ms MS] [--summary PATH]
//     Serve live submissions over the line protocol (see serve/feed.h):
//       @<submit> <nodes> <runtime> <estimate> [user]   timed
//       <nodes> <runtime> <estimate> [user]             live (submit = now)
//       end                                             close the feed
//
//   schedd replay  --spec FCFS+EASY [--jobs N] [--seed S] [--machine N]
//                  [--speed X] [--verify-offline] [--summary PATH]
//     Replay the CTC-like trace at X times real time (0 = as fast as
//     possible). --verify-offline reruns the trace through the offline
//     simulator and fails unless the fingerprints match.
//
//   schedd loadgen --spec FCFS+EASY --rate R (--horizon H | --count N)
//                  [--seed S] [--machine N] [--speed X] [--queue Q]
//                  [--overload block|shed] [--max-backlog B]
//                  [--summary PATH]
//     Drive the daemon with the open-loop Poisson generator — the way to
//     push it past saturation and watch the overload policy work.
//
// Crash safety: --journal PATH arms the write-ahead admission journal. A
// daemon killed (even -9) mid-run and restarted with the same flags and
// journal replays its history and finishes with a bit-identical schedule
// fingerprint — `replay --journal J --verify-offline` proves it against
// the offline simulator. JSCHED_SERVE_CHAOS=N (requires --journal) kills
// the process with SIGKILL after N journal appends: the crash drill the
// CI serve-recovery job runs.
//
// Faults: --mtbf S (per-node mean seconds between failures; 0 = off)
// generates a deterministic failure trace (--mttr, --fault-seed,
// --fault-horizon shape it) and serves through it with requeue or
// checkpoint-restart recovery (--recovery, --checkpoint-interval,
// --restart-overhead), through the same event kernel as sim::simulate.
//
// SIGINT/SIGTERM: first signal drains (stop intake, finish admitted jobs,
// write the summary), second aborts. The summary JSON is always written,
// drained or not. Exit codes: 0 clean, 1 verify mismatch / abort, 2 usage.
#include <cstdio>
#include <cstdlib>
#include <fcntl.h>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/factory.h"
#include "fault/failure_model.h"
#include "metrics/streaming.h"
#include "serve/daemon.h"
#include "serve/feed.h"
#include "serve/journal.h"
#include "serve/loadgen.h"
#include "serve/report.h"
#include "sim/streaming.h"
#include "util/signals.h"
#include "workload/ctc_model.h"
#include "workload/job_source.h"
#include "workload/transforms.h"

namespace {

using namespace jsched;

int usage() {
  std::fprintf(
      stderr,
      "usage: schedd serve   --spec NAME [--feed stdin|tail:FILE|tcp:PORT]\n"
      "                      [--machine N] [--speed S] [--queue Q]\n"
      "                      [--overload block|shed] [--max-backlog B]\n"
      "                      [--report-interval-ms MS] [--summary PATH]\n"
      "       schedd replay  --spec NAME [--jobs N] [--seed S] [--machine N]\n"
      "                      [--speed X] [--verify-offline] [--summary PATH]\n"
      "       schedd loadgen --spec NAME --rate R (--horizon H | --count N)\n"
      "                      [--seed S] [--machine N] [--speed X] [--queue Q]\n"
      "                      [--overload block|shed] [--max-backlog B]\n"
      "                      [--summary PATH] [--connect PORT]\n"
      "crash safety (all modes): [--journal PATH]  (env JSCHED_SERVE_CHAOS=N\n"
      "                      SIGKILLs the daemon after N journal appends)\n"
      "faults (all modes):   [--mtbf S] [--mttr S] [--fault-seed S]\n"
      "                      [--fault-horizon S] [--recovery requeue|"
      "checkpoint]\n"
      "                      [--checkpoint-interval S] [--restart-overhead "
      "S]\n"
      "spec: FCFS, FCFS+EASY, FCFS+CONS, PSRS+EASY, SMART-FFIA+CONS, GG, "
      "...\n");
  return 2;
}

struct Cli {
  std::string mode;
  std::string spec = "FCFS+EASY";
  std::string feed = "stdin";
  int machine = 256;
  double speed = 0.0;  // serve defaults to 1.0 (real time) below
  bool speed_set = false;
  std::size_t queue = 4096;
  std::string overload = "block";
  std::size_t max_backlog = 0;
  std::size_t jobs = 50'000;
  std::uint64_t seed = 19'990'412;
  double rate = 0.0;
  Time horizon = 0;
  std::size_t count = 0;
  bool verify_offline = false;
  long report_interval_ms = 0;
  std::string summary;
  std::string journal;
  double mtbf = 0.0;  // per-node mean seconds between failures; 0 = no faults
  double mttr = 2.0 * static_cast<double>(kHour);
  std::uint64_t fault_seed = 42;
  Time fault_horizon = 0;  // 0 = the failure model's default
  std::string recovery = "requeue";
  Time checkpoint_interval = kHour;
  Time restart_overhead = 0;
  int connect_port = 0;  // loadgen: feed a remote daemon instead of serving
};

std::optional<Cli> parse(const std::vector<std::string>& args) {
  if (args.empty()) return std::nullopt;
  Cli cli;
  cli.mode = args[0];
  if (cli.mode != "serve" && cli.mode != "replay" && cli.mode != "loadgen") {
    return std::nullopt;
  }
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (flag == "--verify-offline") {
      cli.verify_offline = true;
      continue;
    }
    if (i + 1 >= args.size()) return std::nullopt;
    const std::string& value = args[++i];
    if (flag == "--spec") {
      cli.spec = value;
    } else if (flag == "--feed") {
      cli.feed = value;
    } else if (flag == "--machine") {
      cli.machine = std::stoi(value);
    } else if (flag == "--speed") {
      cli.speed = std::stod(value);
      cli.speed_set = true;
    } else if (flag == "--queue") {
      cli.queue = std::stoull(value);
    } else if (flag == "--overload") {
      if (value != "block" && value != "shed") return std::nullopt;
      cli.overload = value;
    } else if (flag == "--max-backlog") {
      cli.max_backlog = std::stoull(value);
    } else if (flag == "--jobs") {
      cli.jobs = std::stoull(value);
    } else if (flag == "--seed") {
      cli.seed = std::stoull(value);
    } else if (flag == "--rate") {
      cli.rate = std::stod(value);
    } else if (flag == "--horizon") {
      cli.horizon = static_cast<Time>(std::stoll(value));
    } else if (flag == "--count") {
      cli.count = std::stoull(value);
    } else if (flag == "--report-interval-ms") {
      cli.report_interval_ms = std::stol(value);
    } else if (flag == "--summary") {
      cli.summary = value;
    } else if (flag == "--journal") {
      cli.journal = value;
    } else if (flag == "--mtbf") {
      cli.mtbf = std::stod(value);
    } else if (flag == "--mttr") {
      cli.mttr = std::stod(value);
    } else if (flag == "--fault-seed") {
      cli.fault_seed = std::stoull(value);
    } else if (flag == "--fault-horizon") {
      cli.fault_horizon = static_cast<Time>(std::stoll(value));
    } else if (flag == "--recovery") {
      if (value != "requeue" && value != "checkpoint") return std::nullopt;
      cli.recovery = value;
    } else if (flag == "--checkpoint-interval") {
      cli.checkpoint_interval = static_cast<Time>(std::stoll(value));
    } else if (flag == "--restart-overhead") {
      cli.restart_overhead = static_cast<Time>(std::stoll(value));
    } else if (flag == "--connect") {
      cli.connect_port = std::stoi(value);
    } else {
      return std::nullopt;
    }
  }
  return cli;
}

serve::ServeOptions serve_options(const Cli& cli) {
  serve::ServeOptions options;
  options.machine.nodes = cli.machine;
  options.spec = core::parse_spec(cli.spec);
  options.speed = cli.speed;
  options.queue_capacity = cli.queue;
  options.overload = cli.overload == "shed" ? serve::OverloadPolicy::kShed
                                            : serve::OverloadPolicy::kBlock;
  options.max_backlog = cli.max_backlog;
  options.report_interval = std::chrono::milliseconds(cli.report_interval_ms);
  options.log = [](const std::string& line) {
    std::fprintf(stderr, "[schedd] %s\n", line.c_str());
  };
  options.poll_signal = [] { return util::SignalDrain::count(); };
  if (const char* chaos = std::getenv("JSCHED_SERVE_CHAOS")) {
    options.chaos_kill_after_appends = std::strtoull(chaos, nullptr, 10);
  }
  return options;
}

/// Owns the state ServeOptions only points at (fault trace, journal) so it
/// outlives the serve() call; builds both from the command line.
struct RunState {
  fault::FailureTrace trace;
  std::unique_ptr<serve::AdmissionJournal> journal;

  fault::FaultOptions fault_options(const Cli& cli) const {
    fault::FaultOptions faults;
    if (!trace.empty()) {
      faults.trace = &trace;
      faults.recovery.policy = cli.recovery == "checkpoint"
                                   ? fault::RecoveryPolicy::kCheckpointRestart
                                   : fault::RecoveryPolicy::kRequeueFromScratch;
      faults.recovery.checkpoint_interval = cli.checkpoint_interval;
      faults.recovery.restart_overhead = cli.restart_overhead;
    }
    return faults;
  }
};

/// `feed_restarts`: whether this mode's feed re-delivers its stream from
/// the beginning on a restart (replay / loadgen generators do; live
/// transports do not), which decides if a recovering daemon must skip the
/// journaled consumed prefix. `state` must be caller-owned (options ends
/// up pointing into it) and outlive the serve() call.
void arm_resilience(const Cli& cli, serve::ServeOptions& options,
                    bool feed_restarts, RunState& state) {
  if (cli.mtbf > 0.0) {
    fault::FailureModelParams params;
    params.nodes = cli.machine;
    params.mtbf = cli.mtbf;
    params.mttr = cli.mttr;
    if (cli.fault_horizon > 0) params.horizon = cli.fault_horizon;
    state.trace = fault::generate_failures(params, cli.fault_seed);
    std::fprintf(stderr,
                 "[schedd] fault trace: %zu events, max %d nodes down\n",
                 state.trace.events.size(), state.trace.max_down);
  }
  if (!cli.journal.empty()) {
    state.journal = std::make_unique<serve::AdmissionJournal>(cli.journal);
    if (state.journal->has_history()) {
      std::fprintf(stderr,
                   "[schedd] journal %s: run %zu, recovering %zu admissions "
                   "(%zu complete at its last digest)\n",
                   cli.journal.c_str(), state.journal->runs(),
                   state.journal->admitted_count(),
                   state.journal->completed_at_open());
    }
    options.journal = state.journal.get();
    options.feed_restarts_from_start = feed_restarts;
  }
  options.faults = state.fault_options(cli);
}

int finish(const Cli& cli, const serve::ServeRunMeta& meta,
           const serve::ServeReport& report) {
  std::printf("%s\n", serve::serve_run_json(meta, report, 0).c_str());
  if (!cli.summary.empty()) {
    serve::write_serve_summary(cli.summary, meta, report);
    std::fprintf(stderr, "[schedd] summary written to %s\n",
                 cli.summary.c_str());
  }
  return report.aborted ? 1 : 0;
}

/// The replay workload, constructed exactly like the sweep/bench trace so
/// fingerprints line up across the whole toolchain.
workload::Workload replay_workload(const Cli& cli) {
  workload::CtcModelParams params;
  params.job_count = cli.jobs;
  return workload::trim_to_machine(workload::generate_ctc(params, cli.seed),
                                   cli.machine);
}

int run_serve(const Cli& cli) {
  serve::ServeOptions options = serve_options(cli);
  if (!cli.speed_set) options.speed = 1.0;  // a live daemon runs in real time
  RunState state;
  // tail:FILE re-reads the file from the start on restart; stdin/tcp don't.
  arm_resilience(cli, options, /*feed_restarts=*/cli.feed.rfind("tail:", 0) == 0,
                 state);

  std::unique_ptr<serve::Feed> feed;
  std::string source_name;
  if (cli.feed == "stdin") {
    feed = std::make_unique<serve::FdLineFeed>(STDIN_FILENO, /*tail=*/false,
                                               /*close_fd=*/false);
    source_name = "stdin";
  } else if (cli.feed.rfind("tail:", 0) == 0) {
    const std::string path = cli.feed.substr(5);
    const int fd = open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      std::fprintf(stderr, "schedd: cannot open %s\n", path.c_str());
      return 2;
    }
    feed = std::make_unique<serve::FdLineFeed>(fd, /*tail=*/true,
                                               /*close_fd=*/true);
    source_name = cli.feed;
  } else if (cli.feed.rfind("tcp:", 0) == 0) {
    const int port = std::stoi(cli.feed.substr(4));
    auto tcp = std::make_unique<serve::TcpFeed>(static_cast<std::uint16_t>(port));
    std::fprintf(stderr, "[schedd] listening on 127.0.0.1:%u\n",
                 static_cast<unsigned>(tcp->port()));
    source_name = "tcp:" + std::to_string(tcp->port());
    feed = std::move(tcp);
  } else {
    return usage();
  }

  const serve::ServeReport report = serve::serve(*feed, options);
  serve::ServeRunMeta meta;
  meta.label = cli.spec + " serve";
  meta.source = source_name;
  meta.speed = options.speed;
  return finish(cli, meta, report);
}

int run_replay(const Cli& cli) {
  const workload::Workload w = replay_workload(cli);
  workload::WorkloadSource source(w);
  serve::JobSourceFeed feed(source);
  serve::ServeOptions options = serve_options(cli);
  RunState state;
  arm_resilience(cli, options, /*feed_restarts=*/true, state);
  const serve::ServeReport report = serve::serve(feed, options);

  serve::ServeRunMeta meta;
  meta.label = cli.spec + " replay";
  meta.source = "ctc:" + std::to_string(w.size());
  meta.speed = cli.speed;
  meta.seed = cli.seed;
  const int rc = finish(cli, meta, report);
  if (rc != 0 || !cli.verify_offline) return rc;

  // Rerun the trace through the offline simulator; the daemon's schedule
  // must be bit-identical (this is the subsystem's acceptance check).
  const sim::Machine machine{cli.machine};
  auto scheduler = core::make_scheduler(core::parse_spec(cli.spec));
  workload::WorkloadSource offline_source(w);
  metrics::StreamingAggregator aggregator(machine.nodes);
  sim::StreamOptions offline_options;
  offline_options.faults = state.fault_options(cli);  // same fault axis
  sim::simulate_stream(machine, *scheduler, offline_source, aggregator,
                       offline_options);
  const std::uint64_t offline_fnv = aggregator.finish().schedule_fnv;
  if (report.drained) {
    std::fprintf(stderr,
                 "[schedd] verify skipped: run was drained early (%zu of %zu "
                 "jobs served)\n",
                 report.completed, w.size());
    return 0;
  }
  if (report.schedule_fnv != offline_fnv) {
    std::fprintf(stderr,
                 "[schedd] VERIFY FAILED: served fingerprint %016llx != "
                 "offline %016llx\n",
                 static_cast<unsigned long long>(report.schedule_fnv),
                 static_cast<unsigned long long>(offline_fnv));
    return 1;
  }
  std::fprintf(stderr,
               "[schedd] verify ok: served schedule is bit-identical to the "
               "offline simulator (%zu jobs)\n",
               report.completed);
  return 0;
}

int run_loadgen(const Cli& cli) {
  serve::OpenLoopConfig config;
  config.rate = cli.rate;
  config.horizon = cli.horizon;
  config.job_count = cli.count;
  config.seed = cli.seed;
  serve::OpenLoopSource source(config);

  if (cli.connect_port > 0) {
    // Client mode: stream the generated jobs to a daemon already listening
    // on tcp:PORT, through the reconnect-with-backoff submit client — a
    // daemon restart mid-stream costs retries, not records.
    serve::TcpSubmitClient client(
        static_cast<std::uint16_t>(cli.connect_port));
    std::vector<serve::SubmitRecord> batch;
    std::size_t sent = 0;
    while (true) {
      const bool more = source.poll(kTimeInfinity, batch);
      for (const serve::SubmitRecord& r : batch) {
        if (!client.send(r)) {
          std::fprintf(stderr, "schedd: loadgen: daemon unreachable\n");
          return 1;
        }
        ++sent;
      }
      batch.clear();
      if (!more) break;
    }
    client.send_end();
    std::printf("{\"loadgen_client\": {\"sent\": %zu, \"reconnects\": %zu}}\n",
                sent, client.reconnects());
    return 0;
  }

  serve::ServeOptions options = serve_options(cli);
  RunState state;
  arm_resilience(cli, options, /*feed_restarts=*/true, state);
  const serve::ServeReport report = serve::serve(source, options);
  serve::ServeRunMeta meta;
  meta.label = cli.spec + " loadgen";
  meta.source = "loadgen:rate=" + std::to_string(cli.rate);
  meta.speed = cli.speed;
  meta.seed = cli.seed;
  return finish(cli, meta, report);
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  const std::optional<Cli> cli = parse(args);
  if (!cli.has_value()) return usage();
  util::SignalDrain drain;
  try {
    if (cli->mode == "serve") return run_serve(*cli);
    if (cli->mode == "replay") return run_replay(*cli);
    return run_loadgen(*cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "schedd: %s\n", e.what());
    return 1;
  }
}
