// Pull-based streaming job production.
//
// A JobSource emits the same job stream a batch generator would build, one
// job at a time and in O(1) state, so multi-million-job workloads never have
// to exist in memory at once. Every concrete source (the synthetic models,
// SWF files, the binary trace format) promises the finalized-Workload
// invariants on its output stream:
//
//  * ids are dense 0..n-1 in emission order,
//  * submits are origin-shifted (first job at 0) and non-decreasing,
//  * every job's fields fit the job model (invalid_job_field, job.h).
//
// `materialize()` drains a source into an ordinary Workload; the batch
// generators are now thin wrappers around their sources, which is what makes
// stream and batch output bit-identical by construction.
#pragma once

#include <cstddef>
#include <string>

#include "workload/job.h"
#include "workload/workload.h"

namespace jsched::workload {

/// Abstract pull iterator over a job stream (see file comment for the
/// invariants every implementation guarantees).
class JobSource {
 public:
  virtual ~JobSource() = default;
  JobSource(const JobSource&) = delete;
  JobSource& operator=(const JobSource&) = delete;

  /// Pull the next job into `out`. Returns false at end of stream (and
  /// leaves `out` untouched). Not restartable: construct a fresh source to
  /// replay a stream.
  virtual bool next(Job& out) = 0;

  /// Expected total number of jobs, or 0 when unknown (e.g. SWF files).
  /// A hint for pre-reservation only — the stream is authoritative.
  virtual std::size_t size_hint() const noexcept { return 0; }

  /// Stream name, mirroring Workload::name().
  virtual const std::string& name() const noexcept = 0;

 protected:
  JobSource() = default;

  /// Stamp a raw generated job: assign the next dense id and shift the
  /// time origin so the first emitted job submits at 0. Generators keep
  /// their internal clocks unshifted (diurnal phase depends on absolute
  /// time) and call this on every job right before emitting it.
  void stamp(Job& j) noexcept {
    if (emitted_ == 0) origin_ = j.submit;
    j.submit -= origin_;
    j.id = static_cast<JobId>(emitted_++);
  }

  /// Number of jobs emitted so far.
  std::size_t emitted() const noexcept { return emitted_; }

 private:
  Time origin_ = 0;
  std::size_t emitted_ = 0;
};

/// View an already-materialized Workload as a stream (the adapter that lets
/// batch-built workloads flow through streaming-only consumers). Does not
/// own the workload; keep it alive for the source's lifetime.
class WorkloadSource final : public JobSource {
 public:
  explicit WorkloadSource(const Workload& w) noexcept : w_(&w) {}

  bool next(Job& out) override {
    if (pos_ == w_->size()) return false;
    out = (*w_)[pos_++];
    return true;
  }
  std::size_t size_hint() const noexcept override { return w_->size(); }
  const std::string& name() const noexcept override { return w_->name(); }

 private:
  const Workload* w_;
  std::size_t pos_ = 0;
};

/// Drain a source into an in-memory Workload. The result is finalized (a
/// no-op re-sort/re-shift for a well-behaved source, and a full validation
/// pass either way).
Workload materialize(JobSource& source);

}  // namespace jsched::workload
