// Table 6 + Figure 6: the CTC workload with exact execution times — the
// §6.1 study of how estimate accuracy affects each algorithm ("the
// estimated execution times of the trace were simply replaced by the
// actual execution times").
//
// Paper findings:
//  * unweighted: PSRS/SMART (+backfilling) improve by almost a factor 2;
//  * weighted: backfilling beats the classical list scheduler for
//    FCFS/PSRS;
//  * weighted SMART+backfilling gets WORSE with exact times.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "workload/transforms.h"

using namespace jsched;
using bench::ShapeCheck;
using core::DispatchKind;
using core::OrderKind;

int main() {
  const auto cfg = bench::config_from_env();
  const auto machine = bench::machine_of(cfg);
  std::printf("=== Table 6 / Fig. 6: CTC workload with exact runtimes ===\n");
  const auto noisy = bench::ctc_workload(cfg);
  const auto w = workload::with_exact_estimates(noisy);
  bench::print_workload(w, cfg);

  const auto unweighted =
      bench::run_grid_verbose(machine, core::WeightKind::kUnit, w);
  const auto weighted =
      bench::run_grid_verbose(machine, core::WeightKind::kEstimatedArea, w);
  // The comparison baseline: the unweighted grid with user estimates.
  const auto noisy_unweighted =
      bench::run_grid_verbose(machine, core::WeightKind::kUnit, noisy);

  std::printf("%s\n",
              eval::response_time_table(
                  unweighted, &eval::RunResult::art,
                  "Table 6 (unweighted case, exact runtimes): " +
                      eval::experiment_title(w.name(), w.size(),
                                             core::WeightKind::kUnit))
                  .to_ascii()
                  .c_str());
  std::printf("%s\n",
              eval::response_time_table(
                  weighted, &eval::RunResult::awrt,
                  "Table 6 (weighted case, exact runtimes): " +
                      eval::experiment_title(w.name(), w.size(),
                                             core::WeightKind::kEstimatedArea))
                  .to_ascii()
                  .c_str());

  // Figure 6: exact vs estimated, per configuration.
  std::printf("Figure 6 series (unweighted ART, exact vs estimated, CSV):\n");
  std::printf("algorithm,dispatch,exact,estimated\n");
  for (std::size_t i = 0; i < unweighted.size(); ++i) {
    std::printf("%s,%s,%.6E,%.6E\n",
                core::to_string(unweighted[i].spec.order),
                core::to_string(unweighted[i].spec.dispatch),
                unweighted[i].art, noisy_unweighted[i].art);
  }
  std::printf("\n");

  auto u = [&](OrderKind o, DispatchKind d) {
    return bench::metric_of(unweighted, o, d, &eval::RunResult::art);
  };
  auto nu = [&](OrderKind o, DispatchKind d) {
    return bench::metric_of(noisy_unweighted, o, d, &eval::RunResult::art);
  };
  auto v = [&](OrderKind o, DispatchKind d) {
    return bench::metric_of(weighted, o, d, &eval::RunResult::awrt);
  };

  std::vector<ShapeCheck> checks;
  checks.push_back(
      {"unweighted: exact runtimes improve PSRS+backfilling markedly",
       u(OrderKind::kPsrs, DispatchKind::kEasy) <
           0.8 * nu(OrderKind::kPsrs, DispatchKind::kEasy)});
  checks.push_back(
      {"unweighted: exact runtimes improve SMART+backfilling markedly",
       u(OrderKind::kSmartFfia, DispatchKind::kConservative) <
           0.8 * nu(OrderKind::kSmartFfia, DispatchKind::kConservative)});
  checks.push_back(
      {"unweighted: G&G is unchanged (it never reads estimates)",
       std::abs(u(OrderKind::kFcfs, DispatchKind::kFirstFit) -
                nu(OrderKind::kFcfs, DispatchKind::kFirstFit)) <
           1e-6 * nu(OrderKind::kFcfs, DispatchKind::kFirstFit) + 1e-6});
  checks.push_back(
      {"weighted: backfilled FCFS/PSRS beat the classical list scheduler",
       std::min(v(OrderKind::kFcfs, DispatchKind::kEasy),
                v(OrderKind::kPsrs, DispatchKind::kEasy)) <
           v(OrderKind::kFcfs, DispatchKind::kFirstFit)});
  bench::print_shape_checks(checks);
  return 0;
}
