// Table 7: computation time of the scheduling algorithms on the CTC
// workload, relative to FCFS+EASY (the paper reports percentages only).
//
// Paper observations to reproduce in shape:
//  * plain list schedulers are far cheaper than the EASY reference;
//  * SMART/PSRS with EASY cost no more than FCFS+EASY in the unweighted
//    case (their queues stay short);
//  * in the weighted case PSRS/SMART burn significant time (long queues
//    plus replanning).
#include <cstdio>

#include "bench_common.h"

using namespace jsched;
using bench::ShapeCheck;
using core::DispatchKind;
using core::OrderKind;

int main() {
  const auto cfg = bench::config_from_env();
  const auto machine = bench::machine_of(cfg);
  std::printf("=== Table 7: scheduler computation time, CTC workload ===\n");
  const auto w = bench::ctc_workload(cfg);
  bench::print_workload(w, cfg);

  const auto unweighted =
      bench::run_grid_verbose(machine, core::WeightKind::kUnit, w, true);
  const auto weighted = bench::run_grid_verbose(
      machine, core::WeightKind::kEstimatedArea, w, true);

  std::printf("%s\n", eval::cpu_time_table(
                          unweighted, "Table 7 (unweighted case): scheduler "
                                      "CPU time, CTC-like workload")
                          .to_ascii()
                          .c_str());
  std::printf("%s\n", eval::cpu_time_table(
                          weighted, "Table 7 (weighted case): scheduler CPU "
                                    "time, CTC-like workload")
                          .to_ascii()
                          .c_str());

  auto cpu_u = [&](OrderKind o, DispatchKind d) {
    return bench::metric_of(unweighted, o, d,
                            &eval::RunResult::scheduler_cpu_seconds);
  };
  const double ref = cpu_u(OrderKind::kFcfs, DispatchKind::kEasy);

  // Note on scope: the paper's absolute percentages (e.g. FCFS list at
  // -81.6% of FCFS+EASY) are properties of their implementation. In this
  // implementation every algorithm schedules the 11-month trace in well
  // under a second of CPU. The instrument charges about one steady-clock
  // read per bracketed callback (~370k brackets per configuration here,
  // ~0.02 s), runs spread by up to ~0.1 s, and so only the ordering-level
  // observations are meaningful to check.
  std::vector<ShapeCheck> checks;
  checks.push_back(
      {"every configuration (incl. conservative) schedules the full trace\n       in < 60 s of CPU",
       [&] {
         for (const auto& r : unweighted) {
           if (r.scheduler_cpu_seconds >= 60.0) return false;
         }
         return true;
       }()});
  checks.push_back(
      {"SMART plain-list ordering is cheaper than the EASY reference",
       cpu_u(OrderKind::kSmartFfia, DispatchKind::kList) < ref &&
           cpu_u(OrderKind::kSmartNfiw, DispatchKind::kList) < ref});
  checks.push_back(
      {"G&G costs less than the EASY reference",
       cpu_u(OrderKind::kFcfs, DispatchKind::kFirstFit) < ref});
  checks.push_back(
      {"unweighted PSRS/SMART+EASY stay within ~2x of FCFS+EASY",
       cpu_u(OrderKind::kPsrs, DispatchKind::kEasy) < 2.0 * ref &&
           cpu_u(OrderKind::kSmartFfia, DispatchKind::kEasy) < 2.0 * ref});
  checks.push_back(
      {"weighted PSRS needs significantly more list-scheduling time "
       "(paper: +30.6%)",
       bench::metric_of(weighted, OrderKind::kPsrs, DispatchKind::kList,
                        &eval::RunResult::scheduler_cpu_seconds) >
           1.2 * bench::metric_of(weighted, OrderKind::kFcfs,
                                  DispatchKind::kList,
                                  &eval::RunResult::scheduler_cpu_seconds)});
  bench::print_shape_checks(checks);
  return 0;
}
