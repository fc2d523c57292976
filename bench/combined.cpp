// The experiment the paper's administrator defers to future work (§7):
// "In addition she must evaluate the effect of combining the selected
// algorithms."
//
// Institution B's policy wants small response times on weekday daytimes
// (Rule 5 -> unweighted winner: SMART/PSRS + backfilling) and high load —
// operationalized as the weighted objective — at night and on weekends
// (Rule 6 -> winner: Garey&Graham). The PhasedScheduler switches between
// the two winners at the policy boundaries; this bench evaluates the
// combination against both pure strategies with the metrics split by
// phase: ART over daytime-submitted jobs, AWRT over night-submitted jobs.
#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "core/phased_scheduler.h"
#include "fault/failure_model.h"
#include "metrics/objectives.h"
#include "sim/simulator.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace jsched;

namespace {

struct PhaseMetrics {
  double day_art;
  double night_awrt;
  double overall_art;
  double overall_awrt;
};

PhaseMetrics evaluate(const sim::Schedule& s, const workload::Workload& w,
                      const core::PhaseWindow& window) {
  auto in_day = [&](JobId id, const sim::JobRecord&) {
    return window.contains(w.job(id).submit);
  };
  auto in_night = [&](JobId id, const sim::JobRecord& r) {
    return !in_day(id, r);
  };
  return {metrics::average_response_time_if(s, in_day),
          metrics::average_weighted_response_time_if(s, in_night),
          metrics::average_response_time(s),
          metrics::average_weighted_response_time(s)};
}

}  // namespace

int main() {
  const auto cfg = bench::config_from_env();
  const auto machine = bench::machine_of(cfg);
  std::printf("=== Combining the selected algorithms (paper §7) ===\n");
  const auto w = bench::ctc_workload(cfg);
  bench::print_workload(w, cfg);

  const core::PhaseWindow window{7 * kHour, 20 * kHour, true};

  util::Table t({"scheduler", "day ART (s)", "night AWRT", "overall ART",
                 "overall AWRT"});
  t.set_title("phase-split objectives (Rule 5: day ART / Rule 6: night AWRT)");

  // The two pure winners, the reference, and the phased combination. Each
  // contender owns its scheduler instance, so the four simulations are
  // independent and run on JSCHED_THREADS workers.
  std::vector<std::pair<std::string, std::unique_ptr<sim::Scheduler>>>
      contenders;
  core::AlgorithmSpec smart_easy;
  smart_easy.order = core::OrderKind::kSmartFfia;
  smart_easy.dispatch = core::DispatchKind::kEasy;
  contenders.emplace_back("SMART-FFIA+EASY (pure)",
                          core::make_scheduler(smart_easy));

  core::AlgorithmSpec gg;
  gg.dispatch = core::DispatchKind::kFirstFit;
  contenders.emplace_back("Garey&Graham (pure)", core::make_scheduler(gg));

  core::AlgorithmSpec fcfs_easy;
  fcfs_easy.dispatch = core::DispatchKind::kEasy;
  contenders.emplace_back("FCFS+EASY (reference)",
                          core::make_scheduler(fcfs_easy));

  contenders.emplace_back("combined day[SMART+EASY]/night[G&G]",
                          core::make_institution_b_combined());

  std::vector<PhaseMetrics> metrics_by_contender(contenders.size());
  util::parallel_for_each(
      contenders.size(), cfg.threads, [&](std::size_t i) {
        std::fprintf(stderr, "  %s ...\n", contenders[i].first.c_str());
        const auto schedule =
            sim::simulate(machine, *contenders[i].second, w);
        metrics_by_contender[i] = evaluate(schedule, w, window);
      });

  std::vector<std::pair<std::string, PhaseMetrics>> rows;
  for (std::size_t i = 0; i < contenders.size(); ++i) {
    const auto& pm = metrics_by_contender[i];
    rows.emplace_back(contenders[i].first, pm);
    t.add_row({contenders[i].first, util::sci(pm.day_art),
               util::sci(pm.night_awrt), util::sci(pm.overall_art),
               util::sci(pm.overall_awrt)});
  }

  std::printf("%s\n", t.to_ascii().c_str());

  const auto& smart = rows[0].second;
  const auto& pure_gg = rows[1].second;
  const auto& combined = rows[3].second;

  std::vector<bench::ShapeCheck> checks;
  checks.push_back(
      {"combined daytime ART stays close to the pure unweighted winner",
       combined.day_art < 1.5 * smart.day_art});
  checks.push_back(
      {"combined night AWRT improves on the pure unweighted winner",
       combined.night_awrt < smart.night_awrt * 1.05});
  checks.push_back(
      {"combined dominates pure G&G on the daytime objective",
       combined.day_art < pure_gg.day_art * 1.05});
  bench::print_shape_checks(checks);

  // Full-grid perf trajectory (BENCH_grid.json): wall seconds for both
  // objectives plus per-config scheduler CPU and schedule fingerprints, so
  // every future PR can machine-check "faster, and bit-identical".
  std::printf("=== Full-grid wall time + schedule fingerprints ===\n");
  double wall_u = 0.0;
  double wall_w = 0.0;
  const auto grid_u = bench::run_grid_verbose(machine, core::WeightKind::kUnit,
                                              w, true, &wall_u);
  const auto grid_w = bench::run_grid_verbose(
      machine, core::WeightKind::kEstimatedArea, w, true, &wall_w);
  bench::write_grid_bench_json("BENCH_grid.json", cfg, grid_u, wall_u, grid_w,
                               wall_w);

  // Resilience: re-run the unweighted grid under increasing failure
  // intensity (checkpoint/restart recovery) and record the degradation
  // curve (BENCH_fault.json). The failure horizon covers the whole
  // submission span plus drain slack so late-running jobs see faults too.
  std::printf("=== Fault sweep: grid degradation under node failures ===\n");
  Time horizon = 0;
  for (const auto& j : w) horizon = std::max(horizon, j.submit);
  horizon += 30 * kDay;

  fault::FailureModelParams fp;
  fp.nodes = cfg.machine_nodes;
  fp.horizon = horizon;
  fp.mttr = 2.0 * static_cast<double>(kHour);
  const std::vector<std::pair<std::string, double>> intensities = {
      {"mtbf=4w", 28.0 * static_cast<double>(kDay)},
      {"mtbf=1w", 7.0 * static_cast<double>(kDay)},
  };
  std::vector<fault::FailureTrace> traces;
  traces.reserve(intensities.size());
  for (const auto& [label, mtbf] : intensities) {
    fp.mtbf = mtbf;
    traces.push_back(fault::generate_failures(fp, cfg.seed ^ 0xfau));
  }
  std::vector<std::string> labels = {"no-faults"};
  std::vector<eval::FaultSweepPoint> points(1);
  points[0].label = "no-faults";
  for (std::size_t i = 0; i < intensities.size(); ++i) {
    eval::FaultSweepPoint p;
    p.label = intensities[i].first;
    p.faults.trace = &traces[i];
    p.faults.recovery = {fault::RecoveryPolicy::kCheckpointRestart, kHour,
                         5 * kMinute};
    points.push_back(p);
    labels.push_back(p.label);
  }

  eval::ExperimentOptions fopt;
  fopt.measure_cpu = false;
  fopt.threads = cfg.threads;
  fopt.on_run = [&](const std::string& name) {
    std::fprintf(stderr, "  [fault] %s ...\n", name.c_str());
  };
  bench::apply_resilience_env(fopt);
  const auto sweep = eval::run_fault_sweep_outcomes(
      machine, core::WeightKind::kUnit, w, points, fopt);
  std::vector<std::vector<eval::RunResult>> curve;
  curve.reserve(sweep.size());
  for (std::size_t p = 0; p < sweep.size(); ++p) {
    std::fprintf(stderr, "  [fault] %s: %s\n", labels[p].c_str(),
                 eval::failure_summary(sweep[p]).c_str());
    if (sweep[p].failed() > 0) {
      std::printf("%s\n", eval::failure_table(sweep[p], "failed cells: " +
                                                            labels[p])
                              .to_ascii()
                              .c_str());
    }
    curve.push_back(sweep[p].results());
  }

  util::Table ft({"sweep point", "mean goodput", "availability", "kills",
                  "mean ART (s)"});
  ft.set_title("grid means under failure intensity");
  std::vector<double> mean_goodput(curve.size(), 0.0);
  for (std::size_t p = 0; p < curve.size(); ++p) {
    double art = 0.0;
    std::size_t kills = 0;
    for (const auto& r : curve[p]) {
      mean_goodput[p] += r.goodput_fraction;
      art += r.art;
      kills += r.kills;
    }
    mean_goodput[p] /= static_cast<double>(curve[p].size());
    art /= static_cast<double>(curve[p].size());
    ft.add_row({labels[p], util::sci(mean_goodput[p]),
                util::sci(curve[p].front().availability),
                std::to_string(kills), util::sci(art)});
  }
  std::printf("%s\n", ft.to_ascii().c_str());

  std::vector<bench::ShapeCheck> fchecks;
  fchecks.push_back({"fault-free sweep point has goodput 1 for every config",
                     mean_goodput[0] == 1.0});
  // Goodput need not fall as failures get more frequent: under
  // checkpoint/restart the latest-started victim is younger when failures
  // are frequent, so more kills can waste less (EXPERIMENTS.md, "Fault
  // sweep"). The model does imply that every faulty point loses work and
  // that uptime falls with failure intensity.
  const auto every_config = [&](auto pred) {
    for (std::size_t p = 1; p < curve.size(); ++p) {
      for (std::size_t i = 0; i < curve[p].size(); ++i) {
        if (!pred(curve[p - 1][i], curve[p][i])) return false;
      }
    }
    return true;
  };
  fchecks.push_back(
      {"every config loses work at every failure intensity (goodput < 1)",
       every_config([](const eval::RunResult&, const eval::RunResult& r) {
         return r.goodput_fraction < 1.0;
       })});
  fchecks.push_back(
      {"availability falls with failure intensity in every config",
       every_config([](const eval::RunResult& prev, const eval::RunResult& r) {
         return r.availability < prev.availability;
       })});
  fchecks.push_back(
      {"every config still completes all jobs at the highest intensity",
       std::all_of(curve.back().begin(), curve.back().end(),
                   [&](const eval::RunResult& r) { return r.jobs == w.size(); })});
  bench::print_shape_checks(fchecks);
  bench::write_fault_bench_json("BENCH_fault.json", cfg, labels, curve);
  return 0;
}
