// Structured failure taxonomy for the evaluation harness.
//
// A sweep over a large grid multiplies every fragile ingredient — workload
// generators, third-party scheduler plug-ins, multi-hour simulations — and
// a single raw exception aborting the whole sweep throws away every
// completed cell. This header defines what a failure *is* (RunError: which
// phase failed, in which run, after how many attempts) and what the
// harness should do about one (ErrorPolicy). The run_*_outcomes entry
// points in experiment.h return these instead of throwing.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>

namespace jsched::eval {

/// Which phase of a run failed. Classification is by exception type at the
/// per-cell boundary:
///   * a workload-generation failure (exception escaping the user's
///     make_workload callback)    -> kWorkload
///   * sim::ValidationError       -> kValidation
///   * std::logic_error           -> kScheduler (the simulator's event-loop
///     contract checks throw logic_error when a scheduler misbehaves)
///   * anything else              -> kSimulation
enum class RunErrorKind {
  kWorkload,    // workload generation / ingestion failed
  kScheduler,   // the scheduler violated the simulator contract
  kSimulation,  // the simulation itself failed (resources, internal bug)
  kValidation,  // the produced schedule failed validate_schedule
};

constexpr std::string_view to_string(RunErrorKind kind) noexcept {
  switch (kind) {
    case RunErrorKind::kWorkload:
      return "workload";
    case RunErrorKind::kScheduler:
      return "scheduler";
    case RunErrorKind::kSimulation:
      return "simulation";
    case RunErrorKind::kValidation:
      return "validation";
  }
  return "unknown";
}

/// One structured failure: everything a sweep report needs to say "this
/// cell failed, here is why, and the others are unaffected".
struct RunError {
  RunErrorKind kind = RunErrorKind::kSimulation;
  std::string message;    // the exception's what()
  std::string scheduler;  // display name of the failing configuration
  std::size_t attempts = 1;  // tries consumed (retries included)

  /// "scheduler error in SMART-NFIW+EASY after 3 attempts: <what>"
  std::string describe() const {
    std::string out(to_string(kind));
    out += " error in ";
    out += scheduler.empty() ? "?" : scheduler;
    if (attempts > 1) {
      out += " after " + std::to_string(attempts) + " attempts";
    }
    out += ": " + message;
    return out;
  }
};

/// What the harness does when a cell of a sweep throws.
enum class ErrorPolicy {
  /// Let the exception propagate and abort the sweep — today's behavior,
  /// and the default. The harness catches nothing, so callers observe the
  /// original exception type.
  kFailFast,
  /// Catch the failure into the cell's RunOutcome and keep sweeping; the
  /// sweep completes every healthy cell and reports the failures.
  kIsolate,
  /// Like kIsolate, but first re-run the failed cell (same seed, same
  /// inputs) up to kMaxRetries extra times — for flaky environmental
  /// failures; a deterministic bug fails every attempt.
  kRetryN,
};

/// Extra attempts per failed cell under ErrorPolicy::kRetryN: a cell runs
/// at most 1 + kMaxRetries times.
inline constexpr std::size_t kMaxRetries = 2;

constexpr std::string_view to_string(ErrorPolicy policy) noexcept {
  switch (policy) {
    case ErrorPolicy::kFailFast:
      return "fail_fast";
    case ErrorPolicy::kIsolate:
      return "isolate";
    case ErrorPolicy::kRetryN:
      return "retry";
  }
  return "unknown";
}

/// Parse "fail_fast" / "isolate" / "retry" (the JSCHED_ERROR_POLICY env
/// values); throws std::invalid_argument on anything else.
inline ErrorPolicy error_policy_from_string(std::string_view s) {
  if (s == "fail_fast") return ErrorPolicy::kFailFast;
  if (s == "isolate") return ErrorPolicy::kIsolate;
  if (s == "retry") return ErrorPolicy::kRetryN;
  throw std::invalid_argument("unknown error policy: " + std::string(s) +
                              " (expected fail_fast|isolate|retry)");
}

}  // namespace jsched::eval
