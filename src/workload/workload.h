// A stream of job submissions plus summary statistics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/hash.h"
#include "util/stats.h"
#include "workload/job.h"

namespace jsched::workload {

/// An ordered job-submission stream.
///
/// Invariants (enforced by `validate` / maintained by `finalize`):
///  * jobs are sorted by submit time (ties by id),
///  * ids are dense 0..n-1 and equal to the job's index,
///  * every job's fields fit the job model (invalid_job_field, job.h).
/// A runtime above the estimate is allowed: the simulator cancels such a
/// job at its upper limit (Example 5, Rule 2).
class Workload {
 public:
  Workload() = default;
  explicit Workload(std::vector<Job> jobs, std::string name = {});

  const std::string& name() const noexcept { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  std::size_t size() const noexcept { return jobs_.size(); }
  bool empty() const noexcept { return jobs_.empty(); }
  const Job& operator[](std::size_t i) const noexcept { return jobs_[i]; }
  const Job& job(JobId id) const noexcept { return jobs_[id]; }
  std::span<const Job> jobs() const noexcept { return jobs_; }

  auto begin() const noexcept { return jobs_.begin(); }
  auto end() const noexcept { return jobs_.end(); }

  /// Append a job (id is assigned); call finalize() before simulating.
  void add(Job j);

  /// Pre-reserve capacity for `n` jobs (no-op when already that large).
  void reserve(std::size_t n) { jobs_.reserve(n); }

  /// Sort by submit time, shift the time origin so the first submission is
  /// at 0, and re-assign dense ids. Throws on invalid jobs.
  void finalize();

  /// Throws std::invalid_argument describing the first violated invariant.
  void validate() const;

  /// Largest node request in the stream (0 when empty).
  int max_nodes() const noexcept;

  /// Time of the last submission (0 when empty).
  Time span() const noexcept;

  /// Total resource demand: sum of nodes x runtime.
  double total_area() const noexcept;

  /// Aggregate statistics in one streaming pass (equals summarize(*this)).
  struct WorkloadSummary summary() const;

 private:
  std::vector<Job> jobs_;
  std::string name_;
};

/// Aggregate workload statistics used for reporting and by the
/// probability-distribution model (paper §6.2).
struct WorkloadSummary {
  std::size_t job_count = 0;
  Time span = 0;
  int max_nodes = 0;
  util::RunningStats interarrival;
  util::RunningStats nodes;
  util::RunningStats runtime;
  util::RunningStats estimate;
  util::RunningStats overestimate_factor;  // estimate / runtime
  double total_area = 0.0;
  /// Offered load against a machine of `machine_nodes`:
  /// total_area / (machine_nodes * span).
  double offered_load(int machine_nodes) const noexcept;
};

/// Streaming builder for WorkloadSummary: feed jobs in stream order, read
/// the summary at any point. One pass, O(1) state — usable against a
/// JobSource that never materializes.
class SummaryAccumulator {
 public:
  void add(const Job& j) noexcept;
  const WorkloadSummary& summary() const noexcept { return s_; }

 private:
  WorkloadSummary s_;
  Time prev_submit_ = 0;
};

WorkloadSummary summarize(const Workload& w);

/// Streaming builder for `fingerprint`: feed jobs in stream order, read
/// `value()` at the end. The job count is mixed in *last* (after every
/// record), so a streaming writer can emit the running fingerprint into a
/// trailer without knowing the count up front; `value()` is pure and may
/// be read mid-stream for a fingerprint of the prefix.
class FingerprintAccumulator {
 public:
  void add(const Job& j) noexcept;
  /// Fingerprint of everything added so far (records then count).
  std::uint64_t value() const noexcept;
  std::uint64_t count() const noexcept { return n_; }

 private:
  std::uint64_t h_ = util::kFnvOffset;
  std::uint64_t n_ = 0;
};

/// FNV-1a (64-bit) fingerprint over every job's submit, nodes, runtime,
/// estimate, user, priority class and status, plus the job count (mixed
/// after the records — see FingerprintAccumulator). Two workloads
/// fingerprint equal iff they are field-identical job streams — the
/// workload-identity half of a sweep-journal cell key (the name is
/// deliberately excluded: a renamed but identical trace is the same work).
std::uint64_t fingerprint(const Workload& w);

/// Human-readable multi-line description of a summary.
std::string describe(const WorkloadSummary& s);

}  // namespace jsched::workload
