#include "test_support.h"

#include "util/journal.h"

namespace jsched::test {

Job make_job(Time submit, int nodes, Duration runtime, Duration estimate) {
  Job j;
  j.submit = submit;
  j.nodes = nodes;
  j.runtime = runtime;
  j.estimate = estimate == 0 ? runtime : estimate;
  return j;
}

workload::Workload make_workload(std::vector<Job> jobs) {
  return workload::Workload(std::move(jobs), "test");
}

sim::Schedule run(const core::AlgorithmSpec& spec, const workload::Workload& w,
                  int nodes) {
  sim::Machine m;
  m.nodes = nodes;
  auto scheduler = core::make_scheduler(spec);
  return sim::simulate(m, *scheduler, w);
}

std::uint64_t run_fingerprint(const core::AlgorithmSpec& spec,
                              const workload::Workload& w, int nodes) {
  return sim::schedule_fingerprint(run(spec, w, nodes));
}

workload::Workload small_mixed_workload() {
  // Designed around a 16-node machine: a wide job blocks the queue while
  // narrow jobs could backfill; estimates over-state runtimes to exercise
  // early completions.
  return make_workload({
      make_job(0, 8, 100, 120),     // 0: starts immediately
      make_job(0, 8, 50, 200),      // 1: starts immediately
      make_job(10, 16, 80, 100),    // 2: full-machine job, must wait
      make_job(20, 2, 30, 40),      // 3: backfill candidate
      make_job(25, 2, 500, 600),    // 4: long narrow job
      make_job(30, 12, 60, 90),     // 5
      make_job(40, 1, 10, 3600),    // 6: tiny job, wild over-estimate
      make_job(200, 4, 100, 150),   // 7
      make_job(210, 16, 40, 50),    // 8: another full-machine job
      make_job(220, 1, 20, 30),     // 9
  });
}

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  util::AppendLog::for_each_line(
      path, [&](const std::string& line) { lines.push_back(line); });
  return lines;
}

}  // namespace jsched::test
