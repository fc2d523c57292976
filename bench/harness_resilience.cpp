// Harness fault-tolerance demonstrator (also the CI check).
//
// Runs the 13-configuration grid on a small CTC-like workload with one
// configuration (SMART-NFIW+EASY) replaced by a scheduler that throws mid
// simulation. Under JSCHED_ERROR_POLICY=isolate (or retry) the sweep must
// complete every other cell and report exactly one structured scheduler
// failure — exit 0; under retry that failure must also have consumed all
// 1 + eval::kMaxRetries attempts. Under fail_fast (the default) the
// injected exception aborts the sweep as a plain std::logic_error — exit 1.
// CI runs all three and asserts the exit codes.
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/factory.h"
#include "eval/journal.h"
#include "sim/scheduler.h"

using namespace jsched;

namespace {

/// Schedules nothing and throws once jobs start arriving — a stand-in for
/// a buggy scheduler plug-in violating the simulator contract mid-sweep.
class ThrowingScheduler : public sim::Scheduler {
 public:
  std::string name() const override { return "throwing-scheduler"; }
  void reset(const sim::Machine&) override {}
  void on_submit(const Submission&, Time) override {
    throw std::logic_error(
        "injected failure: scheduler refused the submission");
  }
  void on_complete(JobId, Time) override {}
  void select_starts(Time, int, std::vector<JobId>&) override {}
  std::size_t queue_length() const override { return 0; }
};

}  // namespace

int main() {
  auto cfg = bench::config_from_env();
  const auto machine = bench::machine_of(cfg);
  std::printf("=== Harness fault-tolerance check ===\n");
  const auto w = bench::ctc_workload(cfg);

  eval::ExperimentOptions opt;
  opt.measure_cpu = false;
  opt.threads = cfg.threads;
  bench::apply_resilience_env(opt);
  opt.scheduler_factory = [](const core::AlgorithmSpec& spec)
      -> std::unique_ptr<sim::Scheduler> {
    if (spec.order == core::OrderKind::kSmartNfiw &&
        spec.dispatch == core::DispatchKind::kEasy) {
      return std::make_unique<ThrowingScheduler>();
    }
    return core::make_scheduler(spec);
  };

  std::printf("error policy: %s\n",
              std::string(eval::to_string(opt.error_policy)).c_str());
  eval::GridResult grid;
  try {
    grid = eval::run_grid_outcomes(machine, core::WeightKind::kUnit, w, opt);
  } catch (const std::exception& e) {
    // fail_fast: the injected logic_error (possibly wrapped by the thread
    // pool) aborts the sweep. Nonzero exit is the expected outcome here.
    std::printf("sweep aborted (%s policy): %s\n",
                std::string(eval::to_string(opt.error_policy)).c_str(),
                e.what());
    return 1;
  }

  std::printf("%s\n", eval::failure_summary(grid).c_str());
  std::printf("%s\n",
              eval::failure_table(grid, "failed cells").to_ascii().c_str());

  const auto failures = grid.failures();
  bool pass = failures.size() == 1 &&
              failures[0].kind == eval::RunErrorKind::kScheduler &&
              grid.cells.size() - grid.failed() == grid.cells.size() - 1;
  // Every healthy cell must carry a real result.
  for (const eval::RunOutcome& c : grid.cells) {
    if (c.ok && c.result.schedule_fnv == 0) pass = false;
  }
  std::vector<bench::ShapeCheck> checks = {
      {"exactly one structured scheduler failure, all other cells complete",
       pass}};
  if (opt.error_policy == eval::ErrorPolicy::kRetryN) {
    // The injected failure is deterministic, so every retry fails too.
    checks.push_back(
        {"the failed cell used all " + std::to_string(1 + eval::kMaxRetries) +
             " attempts",
         failures.size() == 1 && failures[0].attempts == 1 + eval::kMaxRetries});
    pass = pass && checks.back().pass;
  }
  bench::print_shape_checks(checks);
  return pass ? 0 : 2;
}
