#include "bench_common.h"

#include <chrono>
#include <cstdio>
#include <memory>

#include <sys/resource.h>

#include "core/factory.h"
#include "eval/journal.h"
#include "metrics/streaming.h"
#include "sim/streaming.h"
#include "util/env.h"
#include "util/parallel.h"
#include "workload/ctc_model.h"
#include "workload/transforms.h"

namespace jsched::bench {

BenchConfig config_from_env() {
  BenchConfig cfg;
  cfg.ctc_jobs = static_cast<std::size_t>(
      util::env_int("JSCHED_CTC_JOBS", static_cast<std::int64_t>(cfg.ctc_jobs)));
  cfg.synth_jobs = static_cast<std::size_t>(util::env_int(
      "JSCHED_SYNTH_JOBS", static_cast<std::int64_t>(cfg.synth_jobs)));
  cfg.cap = static_cast<std::size_t>(util::env_int("JSCHED_JOBS", 0));
  cfg.seed = static_cast<std::uint64_t>(
      util::env_int("JSCHED_SEED", static_cast<std::int64_t>(cfg.seed)));
  cfg.machine_nodes =
      static_cast<int>(util::env_int("JSCHED_MACHINE", cfg.machine_nodes));
  cfg.threads = static_cast<std::size_t>(
      util::env_int("JSCHED_THREADS", static_cast<std::int64_t>(cfg.threads)));
  return cfg;
}

sim::Machine machine_of(const BenchConfig& cfg) {
  sim::Machine m;
  m.nodes = cfg.machine_nodes;
  return m;
}

workload::Workload capped(workload::Workload w, const BenchConfig& cfg) {
  if (cfg.cap != 0 && cfg.cap < w.size()) {
    return workload::take_prefix(w, cfg.cap);
  }
  return w;
}

workload::Workload ctc_workload(const BenchConfig& cfg) {
  workload::CtcModelParams params;
  params.job_count = cfg.ctc_jobs;
  workload::Workload raw = workload::generate_ctc(params, cfg.seed);
  std::size_t dropped = 0;
  workload::Workload trimmed =
      workload::trim_to_machine(raw, cfg.machine_nodes, &dropped);
  std::printf("trimmed %zu jobs wider than %d nodes (%.2f%%), as in §6.1\n",
              dropped, cfg.machine_nodes,
              100.0 * static_cast<double>(dropped) /
                  static_cast<double>(raw.size()));
  return capped(std::move(trimmed), cfg);
}

void print_workload(const workload::Workload& w, const BenchConfig& cfg) {
  std::printf("workload: %s\n", w.name().c_str());
  const auto s = workload::summarize(w);
  std::fputs(workload::describe(s).c_str(), stdout);
  std::printf("offered load on %d nodes: %.2f\n\n", cfg.machine_nodes,
              s.offered_load(cfg.machine_nodes));
}

void apply_resilience_env(eval::ExperimentOptions& opt) {
  if (const auto policy = util::env_string("JSCHED_ERROR_POLICY")) {
    opt.error_policy = eval::error_policy_from_string(*policy);
  }
  if (const auto path = util::env_string("JSCHED_JOURNAL")) {
    // One journal object per process: every sweep of this bench appends to
    // (and resumes from) the same file, and the object must outlive every
    // ExperimentOptions that points at it.
    static std::unique_ptr<eval::SweepJournal> journal;
    if (journal == nullptr) {
      journal = std::make_unique<eval::SweepJournal>(*path);
      std::fprintf(stderr, "journal %s: %zu completed cells on file\n",
                   journal->path().c_str(), journal->loaded());
    }
    opt.journal = journal.get();
  }
}

std::vector<eval::RunResult> run_grid_verbose(const sim::Machine& m,
                                              core::WeightKind weight,
                                              const workload::Workload& w,
                                              bool measure_cpu,
                                              double* wall_seconds) {
  eval::ExperimentOptions opt;
  opt.measure_cpu = measure_cpu;
  opt.threads = static_cast<std::size_t>(util::env_int("JSCHED_THREADS", 1));
  opt.on_run = [&](const std::string& name) {
    std::fprintf(stderr, "  [%s] %s ...\n", core::to_string(weight),
                 name.c_str());
  };
  apply_resilience_env(opt);
  const std::size_t effective =
      opt.threads == 0 ? util::hardware_threads() : opt.threads;
  const auto t0 = std::chrono::steady_clock::now();
  const eval::GridResult grid = eval::run_grid_outcomes(m, weight, w, opt);
  const auto dt = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  std::fprintf(stderr, "  grid done in %.1fs (%zu thread%s): %s\n", dt,
               effective, effective == 1 ? "" : "s",
               eval::failure_summary(grid).c_str());
  if (grid.failed() > 0) {
    // Only reachable under isolate/retry; print the structured report and
    // carry on with the surviving cells (tables render "-" for the rest).
    std::printf("%s\n",
                eval::failure_table(grid, "failed grid cells").to_ascii().c_str());
  }
  if (wall_seconds != nullptr) *wall_seconds = dt;
  return grid.results();
}

void write_grid_bench_json(const std::string& path, const BenchConfig& cfg,
                           const std::vector<eval::RunResult>& unweighted,
                           double unweighted_wall,
                           const std::vector<eval::RunResult>& weighted,
                           double weighted_wall) {
  eval::GridJsonMeta meta;
  meta.jobs = cfg.ctc_jobs;
  meta.machine_nodes = cfg.machine_nodes;
  meta.seed = cfg.seed;
  meta.threads = cfg.threads;
  eval::write_grid_json(path, meta, unweighted, unweighted_wall, weighted,
                        weighted_wall);
}

void write_fault_bench_json(
    const std::string& path, const BenchConfig& cfg,
    const std::vector<std::string>& labels,
    const std::vector<std::vector<eval::RunResult>>& curve) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"benchmark\": \"fault_sweep\",\n");
  std::fprintf(f, "  \"jobs\": %zu,\n", cfg.ctc_jobs);
  std::fprintf(f, "  \"machine_nodes\": %d,\n", cfg.machine_nodes);
  std::fprintf(f, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(cfg.seed));
  std::fprintf(f, "  \"points\": [\n");
  for (std::size_t p = 0; p < curve.size(); ++p) {
    std::fprintf(f, "    {\"label\": \"%s\", \"configs\": [\n",
                 labels[p].c_str());
    for (std::size_t i = 0; i < curve[p].size(); ++i) {
      const eval::RunResult& r = curve[p][i];
      std::fprintf(f,
                   "      {\"scheduler\": \"%s\", \"art\": %.2f, "
                   "\"goodput_fraction\": %.4f, \"availability\": %.4f, "
                   "\"kills\": %zu, \"wasted_node_seconds\": %.0f, "
                   "\"schedule_fnv\": \"%016llx\"}%s\n",
                   r.scheduler_name.c_str(), r.art, r.goodput_fraction,
                   r.availability, r.kills, r.wasted_node_seconds,
                   static_cast<unsigned long long>(r.schedule_fnv),
                   i + 1 == curve[p].size() ? "" : ",");
    }
    std::fprintf(f, "    ]}%s\n", p + 1 == curve.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n\n", path.c_str());
}

long peak_rss_mib() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return u.ru_maxrss / 1024;  // Linux reports ru_maxrss in KiB
}

ScaleRunResult run_scale_stream(std::size_t jobs, std::uint64_t seed,
                                int machine_nodes) {
  workload::CtcModelParams params;
  params.job_count = jobs;
  // Generate at the machine's width: the streamed trace is consumed as it
  // is produced, so there is no trim_to_machine pass. The wider
  // inter-arrival mean compensates for keeping every job (the 430-node
  // default relies on trimming to shed ~5% of the area) — offered load
  // lands around 0.9, heavy but drainable, so the queue stays bounded over
  // arbitrarily long traces.
  params.machine_nodes = machine_nodes;
  params.mean_interarrival = 300.0;
  workload::CtcJobSource source(params, seed);

  core::AlgorithmSpec spec;
  spec.dispatch = core::DispatchKind::kEasy;
  const auto scheduler = core::make_scheduler(spec);
  sim::Machine m;
  m.nodes = machine_nodes;

  metrics::StreamingAggregator agg(machine_nodes);
  const auto t0 = std::chrono::steady_clock::now();
  const sim::StreamStats stats =
      sim::simulate_stream(m, *scheduler, source, agg);
  const double dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const metrics::StreamedMetrics sm = agg.finish();

  ScaleRunResult r;
  r.jobs = stats.jobs;
  r.wall_seconds = dt;
  r.jobs_per_second = dt > 0 ? static_cast<double>(stats.jobs) / dt : 0.0;
  r.peak_rss_mib = peak_rss_mib();
  r.schedule_fnv = sm.schedule_fnv;
  r.art = sm.art;
  r.utilization = sm.utilization;
  r.makespan = sm.makespan;
  r.peak_live_jobs = stats.peak_live_jobs;
  r.max_queue_length = stats.max_queue_length;
  return r;
}

void print_shape_checks(const std::vector<ShapeCheck>& checks) {
  std::printf("shape checks against the paper's findings:\n");
  for (const auto& c : checks) {
    std::printf("  [%s] %s\n", c.pass ? "PASS" : "FAIL", c.description.c_str());
  }
  std::printf("\n");
}

double metric_of(const std::vector<eval::RunResult>& results,
                 core::OrderKind order, core::DispatchKind dispatch,
                 double eval::RunResult::* metric) {
  return eval::find(results, order, dispatch).*metric;
}

}  // namespace jsched::bench
