// Table 4 + Figure 5: the probability-distribution workload (§6.2) —
// statistics extracted from the CTC trace, 50,000 jobs resampled.
//
// Paper findings: the artificial workload "basically supports the results
// derived with the CTC workload"; the one deviation is that EASY beats
// conservative backfilling for PSRS/SMART in the unweighted case.
//
// Table 8: the same grids' scheduler computation time, relative to
// FCFS+EASY. The paper notes "similar results [to Table 7] with a few
// observations being noteworthy", among them that the classical list
// scheduler costs about the same on both workloads while most other
// algorithms scale with the job count.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "workload/stats_model.h"

using namespace jsched;
using bench::ShapeCheck;
using core::DispatchKind;
using core::OrderKind;

int main() {
  const auto cfg = bench::config_from_env();
  const auto machine = bench::machine_of(cfg);
  std::printf(
      "=== Table 4 / Fig. 5 / Table 8: probability-distribution workload "
      "===\n");

  // Extract statistics from the (trimmed) CTC trace, as the administrator
  // does in §6.2, then resample.
  const auto source = bench::ctc_workload(cfg);
  const auto stats = workload::WorkloadStatistics::extract(source);
  std::printf(
      "Weibull fit of CTC inter-arrival times: shape %.3f, scale %.1f\n",
      stats.interarrival_fit().shape, stats.interarrival_fit().scale);
  auto w = bench::capped(stats.sample(cfg.synth_jobs, cfg.seed ^ 0xab1e), cfg);
  bench::print_workload(w, cfg);

  // measure_cpu is on: the same runs feed Table 8.
  const auto unweighted =
      bench::run_grid_verbose(machine, core::WeightKind::kUnit, w);
  const auto weighted =
      bench::run_grid_verbose(machine, core::WeightKind::kEstimatedArea, w);

  std::printf("%s\n",
              eval::response_time_table(
                  unweighted, &eval::RunResult::art,
                  "Table 4 (unweighted case): " +
                      eval::experiment_title(w.name(), w.size(),
                                             core::WeightKind::kUnit))
                  .to_ascii()
                  .c_str());
  std::printf("%s\n",
              eval::response_time_table(
                  weighted, &eval::RunResult::awrt,
                  "Table 4 (weighted case): " +
                      eval::experiment_title(w.name(), w.size(),
                                             core::WeightKind::kEstimatedArea))
                  .to_ascii()
                  .c_str());
  std::printf("Figure 5 series (unweighted ART, CSV):\n%s\n",
              eval::figure_csv(unweighted, &eval::RunResult::art).c_str());

  auto u = [&](OrderKind o, DispatchKind d) {
    return bench::metric_of(unweighted, o, d, &eval::RunResult::art);
  };
  auto v = [&](OrderKind o, DispatchKind d) {
    return bench::metric_of(weighted, o, d, &eval::RunResult::awrt);
  };
  const double ref_u = u(OrderKind::kFcfs, DispatchKind::kEasy);

  std::vector<ShapeCheck> checks;
  checks.push_back(
      {"qualitative ranking matches the CTC workload: FCFS worst "
       "unweighted, PSRS/SMART+backfilling best",
       u(OrderKind::kFcfs, DispatchKind::kList) >
               u(OrderKind::kPsrs, DispatchKind::kEasy) &&
           u(OrderKind::kPsrs, DispatchKind::kEasy) < ref_u});
  checks.push_back(
      {"weighted: G&G again ahead of plain-list PSRS/SMART",
       v(OrderKind::kFcfs, DispatchKind::kFirstFit) <
           std::min(v(OrderKind::kPsrs, DispatchKind::kList),
                    v(OrderKind::kSmartNfiw, DispatchKind::kList))});
  checks.push_back(
      {"unweighted: EASY at least matches conservative for PSRS/SMART "
       "(the paper's noted difference to the CTC trace)",
       u(OrderKind::kPsrs, DispatchKind::kEasy) <
           1.25 * u(OrderKind::kPsrs, DispatchKind::kConservative)});
  bench::print_shape_checks(checks);

  std::printf("%s\n",
              eval::cpu_time_table(unweighted,
                                   "Table 8 (unweighted case): scheduler CPU "
                                   "time, probabilistic workload")
                  .to_ascii()
                  .c_str());
  std::printf("%s\n",
              eval::cpu_time_table(weighted,
                                   "Table 8 (weighted case): scheduler CPU "
                                   "time, probabilistic workload")
                  .to_ascii()
                  .c_str());

  auto cpu_u = [&](OrderKind o, DispatchKind d) {
    return bench::metric_of(unweighted, o, d,
                            &eval::RunResult::scheduler_cpu_seconds);
  };
  const double ref_cpu = cpu_u(OrderKind::kFcfs, DispatchKind::kEasy);

  // See table3_ctc on scope: absolute CPU percentages are implementation
  // properties; the robust observations are checked.
  std::vector<ShapeCheck> cpu_checks;
  cpu_checks.push_back(
      {"Table 8: every configuration (incl. conservative) schedules 50k jobs\n"
       "       in < 60 s of CPU",
       [&] {
         for (const auto& r : unweighted) {
           if (r.scheduler_cpu_seconds >= 60.0) return false;
         }
         return true;
       }()});
  cpu_checks.push_back(
      {"Table 8: SMART plain-list ordering is cheaper than the EASY reference",
       cpu_u(OrderKind::kSmartFfia, DispatchKind::kList) < ref_cpu});
  cpu_checks.push_back(
      {"Table 8: G&G cheaper than the reference",
       cpu_u(OrderKind::kFcfs, DispatchKind::kFirstFit) < ref_cpu});
  bench::print_shape_checks(cpu_checks);
  return 0;
}
