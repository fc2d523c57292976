// Multi-seed replication (paper §2.3).
//
// "The reliability of this method depends on several factors [...] the
//  procedure is repeated with a large number of input data sets."
//
// A single simulated workload is one draw from the workload model; the
// honest version of the paper's comparison repeats each configuration
// over independently seeded workloads and reports the dispersion — so a
// ranking can be read as "robust" rather than "lucky seed".
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "eval/experiment.h"
#include "util/stats.h"

namespace jsched::eval {

/// Aggregate of one algorithm over several independently seeded workloads.
struct ReplicatedResult {
  core::AlgorithmSpec spec;
  std::string scheduler_name;
  util::RunningStats art;
  util::RunningStats awrt;
  util::RunningStats utilization;
  /// Share of executed node-seconds that was useful work (1.0 without
  /// fault injection; see ExperimentOptions::faults).
  util::RunningStats goodput_fraction;

  /// Per-seed outcomes in seed order. Under ErrorPolicy::kFailFast every
  /// entry is a success (a failure would have thrown); under kIsolate /
  /// kRetryN failed replicates stay here as structured RunErrors and are
  /// excluded from the statistics above.
  std::vector<RunOutcome> outcomes;
  /// Failed replicates (outcomes with !ok).
  std::size_t failed_replicates = 0;

  /// Coefficient of variation of the ART across seeds (stddev / mean) —
  /// a quick robustness indicator.
  double art_cv() const {
    return art.mean() > 0.0 ? art.stddev() / art.mean() : 0.0;
  }
};

/// Run `spec` once per seed; `make_workload` maps a seed to a workload
/// (typically a generator + trim pipeline) and must be safe to call from
/// several threads when `options.threads > 1`. Replicates are aggregated
/// in seed order whatever the thread count, so parallel and serial runs
/// report identical statistics. Throws std::runtime_error if the
/// generator returns wildly different job counts (> 5% apart) for
/// different seeds — the tell of a buggy generator; the small spread a
/// trim_to_machine pipeline produces is allowed.
///
/// Fault tolerance: under ErrorPolicy::kIsolate / kRetryN a throwing
/// replicate (workload generation included — its failures classify as
/// kWorkload) is captured into `outcomes` and the statistics aggregate
/// the surviving seeds. With an ExperimentOptions::journal, completed
/// replicates are keyed by (machine, spec, seed, salt) and skipped on
/// resume without calling `make_workload` again.
ReplicatedResult run_replicated(
    const sim::Machine& machine, const core::AlgorithmSpec& spec,
    const std::function<workload::Workload(std::uint64_t)>& make_workload,
    std::span<const std::uint64_t> seeds, const ExperimentOptions& options = {});

/// True when `a` beats `b` on the mean ART by more than `z` pooled
/// standard errors — the "is this ranking robust?" question of §2.3.
/// Standard errors are built from the unbiased (n-1) sample stddev.
bool robustly_better_art(const ReplicatedResult& a, const ReplicatedResult& b,
                         double z = 2.0);

}  // namespace jsched::eval
