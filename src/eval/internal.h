// Internal helpers shared by the eval translation units; not installed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "eval/experiment.h"

namespace jsched::eval::detail {

/// The sweep loop: cell(i, opts) for every i < n on options.threads threads
/// (0 = hardware; <= 1 runs inline in index order) through
/// util::parallel_for_each. `opts` is `options` with on_run serialized, so
/// worker threads never interleave progress output. Under kFailFast the
/// first failure stops further cells from starting and propagates.
void for_each_cell(
    std::size_t n, const ExperimentOptions& options,
    const std::function<void(std::size_t, const ExperimentOptions&)>& cell);

/// core::paper_grid(weight), each configuration keyed by cell_key: the
/// cells run_grid_outcomes sweeps and sweep_cells (shard.h) strings
/// together.
std::vector<SweepCell> grid_cells(std::uint64_t workload_fnv,
                                  int machine_nodes, core::WeightKind weight,
                                  std::uint64_t salt);

/// Run `cells` over `workload` through for_each_cell and run_cell_protected;
/// outcome i belongs to cells[i]. With a journal, every cell lands in the
/// one segment of sweep_fingerprint(workload_fnv, machine.nodes), which is
/// opened before any lookup.
GridResult run_cells(const sim::Machine& machine,
                     const workload::Workload& workload,
                     std::uint64_t workload_fnv,
                     const std::vector<SweepCell>& cells,
                     const ExperimentOptions& options);

/// Re-thrown wrapper that pins an exception to a specific RunErrorKind —
/// used where the phase cannot be told from the exception type alone
/// (e.g. a workload generator throwing std::runtime_error). Only raised
/// when the harness is catching (kIsolate / kRetryN); under kFailFast the
/// original exception propagates untouched.
class PhaseError : public std::runtime_error {
 public:
  PhaseError(RunErrorKind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}
  RunErrorKind kind() const noexcept { return kind_; }

 private:
  RunErrorKind kind_;
};

/// Classify the in-flight exception (call inside a catch block only) into
/// a RunError for `scheduler`. See outcome.h for the type -> kind map.
RunError classify_current_exception(const std::string& scheduler);

/// Run one sweep cell under the options' error policy and journal:
/// journal lookup first (hit -> attempts == 0), then `attempt` once (or
/// 1 + kMaxRetries times under kRetryN), recording a success into the
/// journal. Under kFailFast nothing is caught: `attempt`'s exception
/// propagates with its original type.
RunOutcome run_cell_protected(const ExperimentOptions& options,
                              std::uint64_t key,
                              const core::AlgorithmSpec& spec,
                              const std::function<RunResult()>& attempt);

}  // namespace jsched::eval::detail
