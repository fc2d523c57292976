// The rigid parallel job model of the paper (Example 5, Rule 2):
// the user provides the exact number of nodes and an upper limit for the
// execution time; jobs exceeding the limit may be cancelled.
// Its field bounds live here once (invalid_job_field), so every decoder and
// intake accepts exactly the same jobs.
#pragma once

#include <cstdint>
#include <optional>

#include "util/time.h"

namespace jsched {

/// Stable job identifier; dense indices into the owning Workload.
using JobId = std::uint32_t;

inline constexpr JobId kInvalidJob = static_cast<JobId>(-1);

/// Outcome of the job in the originating trace (SWF field 11). Synthetic
/// workloads and traces without the field report kCompleted. Purely
/// descriptive metadata: the simulator runs every job it is given; use
/// SwfOptions::drop_unsuccessful to exclude failed/cancelled records at
/// parse time.
enum class JobStatus : std::int8_t {
  kCompleted,  // SWF status 1 (and the default)
  kFailed,     // SWF status 0
  kCancelled,  // SWF status 5
  kUnknown,    // anything else (partial-execution codes 2-4, missing -1)
};

/// One rigid batch job.
///
/// The *scheduler* may only ever look at `submit`, `nodes` and `estimate`
/// (plus `user`/`priority_class` for policy layers); `runtime` is ground
/// truth known to the simulator alone and revealed through completion
/// events — this is the paper's on-line model (§2, §5.2).
struct Job {
  JobId id = kInvalidJob;

  /// Submission (release) time.
  Time submit = 0;

  /// Requested number of nodes (rigid). 1 <= nodes <= machine size.
  int nodes = 1;

  /// User-provided upper limit for the execution time (seconds, > 0).
  Duration estimate = 1;

  /// Actual execution time (seconds, > 0, <= estimate in valid workloads;
  /// the simulator cancels at `estimate` otherwise, per Rule 2).
  Duration runtime = 1;

  /// Submitting user (used by policy rules and per-user limits).
  std::int32_t user = 0;

  /// Priority class assigned by the scheduling policy (0 = normal). Higher
  /// values are more important (e.g. Example 1's drug-design lab).
  std::int32_t priority_class = 0;

  /// Trace-reported outcome (see JobStatus); kCompleted for synthetic
  /// jobs. Not part of the submission data a scheduler sees.
  JobStatus status = JobStatus::kCompleted;

  /// Resource consumption ("area") of the job: nodes x actual runtime.
  /// This is the weight of the average *weighted* response time objective
  /// (paper §4).
  double area() const noexcept {
    return static_cast<double>(nodes) * static_cast<double>(runtime);
  }

  /// Area as projected from the user estimate; what on-line algorithms may
  /// use for their decisions (SMART/PSRS weights, §5.4/§5.5).
  double estimated_area() const noexcept {
    return static_cast<double>(nodes) * static_cast<double>(estimate);
  }

  friend bool operator==(const Job&, const Job&) = default;
};

/// The submission-data slice of a Job: exactly the fields an on-line
/// scheduler may see (§2's information boundary), with no runtime member
/// at all. The simulator hands this to Scheduler::on_submit instead of
/// copying the full Job and scrubbing its runtime per arrival — the type
/// itself now enforces the on-line model.
struct Submission {
  JobId id;
  Time submit;
  int nodes;
  Duration estimate;
  std::int32_t user;
  std::int32_t priority_class;

  // Implicit: any Job can be viewed as its submission data.
  Submission(const Job& j) noexcept
      : id(j.id),
        submit(j.submit),
        nodes(j.nodes),
        estimate(j.estimate),
        user(j.user),
        priority_class(j.priority_class) {}

  /// Materialize a Job carrying submission data only (runtime scrubbed to
  /// 0, as the scheduler-side JobStore documents).
  Job to_job() const noexcept {
    Job j;
    j.id = id;
    j.submit = submit;
    j.nodes = nodes;
    j.estimate = estimate;
    j.runtime = 0;
    j.user = user;
    j.priority_class = priority_class;
    return j;
  }
};

/// Largest submit time, runtime or estimate a job may carry: 10^15 s
/// (~30 million years), far beyond any archive trace, so no sum of a time
/// and a duration comes near int64 overflow.
inline constexpr std::int64_t kMaxJobSeconds = 1'000'000'000'000'000;

/// The fields invalid_job_field checks, in its order.
enum class JobField : std::uint8_t {
  kSubmit, kNodes, kRuntime, kEstimate, kUser, kPriorityClass
};

/// How error messages name a field ("priority class").
constexpr const char* field_name(JobField f) noexcept {
  constexpr const char* kNames[] = {"submit",   "nodes", "runtime",
                                    "estimate", "user",  "priority class"};
  return kNames[static_cast<int>(f)];
}

/// The first field a record cannot hold, or nullopt when the job model
/// holds all of them: submit in [0, kMaxJobSeconds], nodes in [1, INT_MAX],
/// runtime and estimate in [1, kMaxJobSeconds], user and priority class in
/// int32 (a value fits an int type iff converting it there round-trips).
/// Decoders pass each field's widest integer reading, before any
/// narrowing; records without a priority class check as class 0.
constexpr std::optional<JobField> invalid_job_field(
    std::int64_t submit, std::int64_t nodes, std::int64_t runtime,
    std::int64_t estimate, std::int64_t user,
    std::int64_t priority_class = 0) noexcept {
  if (submit < 0 || submit > kMaxJobSeconds) return JobField::kSubmit;
  if (nodes < 1 || static_cast<int>(nodes) != nodes) return JobField::kNodes;
  if (runtime < 1 || runtime > kMaxJobSeconds) return JobField::kRuntime;
  if (estimate < 1 || estimate > kMaxJobSeconds) return JobField::kEstimate;
  if (static_cast<std::int32_t>(user) != user) return JobField::kUser;
  if (static_cast<std::int32_t>(priority_class) != priority_class) {
    return JobField::kPriorityClass;
  }
  return std::nullopt;
}

/// The same check on a Job (its id and status are not bounded here).
constexpr std::optional<JobField> invalid_job_field(const Job& j) noexcept {
  return invalid_job_field(j.submit, j.nodes, j.runtime, j.estimate, j.user,
                           j.priority_class);
}

}  // namespace jsched
