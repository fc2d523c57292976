// Bounded-memory streaming scale run with an enforced RSS ceiling.
//
// Simulates FCFS+EASY straight off a streamed CTC-model source — no
// Workload vector, no Schedule record vector — and asserts the process
// peak RSS (getrusage ru_maxrss) stayed under a fixed ceiling. This is the
// memory half of the ROADMAP's scale exit criterion, wired into CI as a
// perf-smoke step; perfbench's stream_ctc workload measures throughput.
//
// Knobs:
//   JSCHED_SCALE_JOBS     jobs to stream         (default 1,000,000)
//   JSCHED_SCALE_RSS_MIB  peak-RSS ceiling, MiB  (default 512)
//   JSCHED_SEED / JSCHED_MACHINE as in bench_common.h
//
// Exits nonzero when the ceiling is breached or the run loses jobs, so the
// CI step needs no output parsing.
#include <cstdio>

#include "bench_common.h"
#include "util/env.h"

using namespace jsched;

int main() {
  const auto cfg = bench::config_from_env();
  const auto jobs = static_cast<std::size_t>(
      util::env_int("JSCHED_SCALE_JOBS", 1'000'000));
  const long ceiling_mib = util::env_int("JSCHED_SCALE_RSS_MIB", 512);

  std::printf("=== Streaming scale smoke: FCFS+EASY, %zu jobs, %d nodes ===\n",
              jobs, cfg.machine_nodes);
  const bench::ScaleRunResult r =
      bench::run_scale_stream(jobs, cfg.seed, cfg.machine_nodes);

  std::printf("jobs            %zu\n", r.jobs);
  std::printf("wall            %.2f s\n", r.wall_seconds);
  std::printf("throughput      %.0f jobs/s\n", r.jobs_per_second);
  std::printf("peak RSS        %ld MiB (ceiling %ld MiB)\n", r.peak_rss_mib,
              ceiling_mib);
  std::printf("peak live jobs  %zu\n", r.peak_live_jobs);
  std::printf("max queue       %zu\n", r.max_queue_length);
  std::printf("utilization     %.4f\n", r.utilization);
  std::printf("ART             %.1f s\n", r.art);
  std::printf("schedule FNV    %016llx\n",
              static_cast<unsigned long long>(r.schedule_fnv));

  std::vector<bench::ShapeCheck> checks;
  checks.push_back({"every streamed job completed", r.jobs == jobs});
  checks.push_back({"peak RSS under the ceiling (bounded-memory claim)",
                    r.peak_rss_mib <= ceiling_mib});
  checks.push_back(
      {"live-job window stayed a tiny fraction of the trace",
       r.peak_live_jobs < jobs / 10 + 1000});
  bench::print_shape_checks(checks);

  for (const auto& c : checks) {
    if (!c.pass) {
      std::fprintf(stderr, "FAILED: %s\n", c.description.c_str());
      return 1;
    }
  }
  return 0;
}
