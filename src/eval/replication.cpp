#include "eval/replication.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "eval/internal.h"
#include "eval/journal.h"

namespace jsched::eval {

namespace {

/// Replicate job counts may differ by this relative factor before the run
/// is rejected. A generator + trim_to_machine pipeline legitimately drops
/// a seed-dependent handful of too-wide jobs (a fraction of a percent);
/// counts further apart than this mean the seeds are not drawing from one
/// workload model and the replicate statistics would be meaningless.
constexpr double kMaxJobCountSpread = 1.05;

/// Journal key of one replicate. The workload fingerprint is deliberately
/// absent — on resume the whole point is to skip regenerating the
/// workload — so the seed (which determines the workload) stands in for
/// it.
std::uint64_t replicate_key(const ExperimentOptions& options, int machine_nodes,
                            const core::AlgorithmSpec& spec,
                            std::uint64_t seed) {
  if (options.journal == nullptr) return 0;
  return cell_key(seed, machine_nodes, spec,
                  options.journal_salt ^ 0x9e3779b97f4a7c15ull);
}

/// Fold per-seed results into the replicate aggregate in seed order — the
/// same add() sequence as a serial loop, so parallel and serial runs
/// produce bit-for-bit identical statistics. Failed replicates (possible
/// only under kIsolate / kRetryN) are skipped. Throws if the workload
/// generator produced wildly different job counts for different seeds: a
/// size mismatch is the cheap tell of a buggy generator.
ReplicatedResult aggregate(const core::AlgorithmSpec& spec,
                           std::span<const std::uint64_t> seeds,
                           std::vector<RunOutcome> outcomes) {
  ReplicatedResult out;
  out.spec = spec;
  const RunResult* reference = nullptr;
  std::size_t reference_seed_index = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].ok) {
      ++out.failed_replicates;
      continue;
    }
    const RunResult& r = outcomes[i].result;
    if (reference == nullptr) {
      reference = &r;
      reference_seed_index = i;
      out.scheduler_name = r.scheduler_name;
    }
    const auto lo = std::min(r.jobs, reference->jobs);
    const auto hi = std::max(r.jobs, reference->jobs);
    if (static_cast<double>(hi) > kMaxJobCountSpread * static_cast<double>(lo)) {
      throw std::runtime_error(
          "run_replicated: make_workload returned " +
          std::to_string(reference->jobs) + " jobs for seed " +
          std::to_string(seeds[reference_seed_index]) + " but " +
          std::to_string(r.jobs) + " for seed " + std::to_string(seeds[i]) +
          "; replicates must draw from one workload model");
    }
    out.art.add(r.art);
    out.awrt.add(r.awrt);
    out.utilization.add(r.utilization);
    out.goodput_fraction.add(r.goodput_fraction);
  }
  out.outcomes = std::move(outcomes);
  return out;
}

}  // namespace

ReplicatedResult run_replicated(
    const sim::Machine& machine, const core::AlgorithmSpec& spec,
    const std::function<workload::Workload(std::uint64_t)>& make_workload,
    std::span<const std::uint64_t> seeds, const ExperimentOptions& options) {
  if (seeds.empty()) {
    throw std::invalid_argument("run_replicated: no seeds");
  }
  // Under kFailFast a make_workload failure must propagate untouched; when
  // the harness is catching, tag it so it classifies as kWorkload instead
  // of whatever generic type the generator threw.
  const bool tag_phases = options.error_policy != ErrorPolicy::kFailFast;
  const auto run_seed = [&](std::size_t i, const ExperimentOptions& opts) {
    const std::uint64_t key =
        replicate_key(opts, machine.nodes, spec, seeds[i]);
    return detail::run_cell_protected(opts, key, spec, [&] {
      const auto materialize = [&]() -> workload::Workload {
        if (!tag_phases) return make_workload(seeds[i]);
        try {
          return make_workload(seeds[i]);
        } catch (const std::exception& e) {
          throw detail::PhaseError(
              RunErrorKind::kWorkload,
              "make_workload(seed=" + std::to_string(seeds[i]) +
                  "): " + e.what());
        }
      };
      const workload::Workload w = materialize();
      return run_one(machine, spec, w, opts);
    });
  };

  std::vector<RunOutcome> outcomes(seeds.size());
  detail::for_each_cell(
      seeds.size(), options,
      [&](std::size_t i, const ExperimentOptions& opts) {
        outcomes[i] = run_seed(i, opts);
      });
  return aggregate(spec, seeds, std::move(outcomes));
}

bool robustly_better_art(const ReplicatedResult& a, const ReplicatedResult& b,
                         double z) {
  if (a.art.count() < 2 || b.art.count() < 2) {
    throw std::invalid_argument("robustly_better_art: need >= 2 replicates");
  }
  // Standard errors use the unbiased n-1 sample stddev: the replicates are
  // a sample from the workload model, and the population formula (divide
  // by n) understates the spread — badly so for the small replicate counts
  // typical here, declaring significance the data does not support.
  const double se_a =
      a.art.sample_stddev() / std::sqrt(static_cast<double>(a.art.count()));
  const double se_b =
      b.art.sample_stddev() / std::sqrt(static_cast<double>(b.art.count()));
  const double pooled = std::sqrt(se_a * se_a + se_b * se_b);
  return a.art.mean() + z * pooled < b.art.mean();
}

}  // namespace jsched::eval
