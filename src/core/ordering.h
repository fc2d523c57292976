// Wait-queue ordering policies.
//
// The paper's algorithm set factors cleanly into "in which order do
// waiting jobs stand in the list" (FCFS by submission; SMART and PSRS by
// recomputed off-line plans, §5.4/§5.5) times "how is the list dispatched
// onto the machine" (greedy head-only, whole-queue first fit, EASY or
// conservative backfilling, §5.1-§5.3). This header is the first factor.
// Every policy keeps its wait queue as a plain vector in queue order and
// finds a started job by scanning from the head, where started jobs
// mostly stand; a by-id position index beside it made no end-to-end
// difference on the benchmark's workloads.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/job_store.h"
#include "sim/machine.h"
#include "util/time.h"

namespace jsched::core {

/// Maintains the ordered list of waiting jobs.
///
/// Dispatchers that keep their own copy of the queue (EASY and first fit
/// search a QueueIndex) follow order() through the notifications alone, so
/// every policy keeps two rules:
///  * an on_submit that leaves version() unchanged appends the job at the
///    tail of order();
///  * otherwise order() changes only by losing the jobs passed to
///    on_remove, the rest keeping their relative order.
/// Anything else, such as inserting mid-queue or replanning, bumps version().
class OrderingPolicy {
 public:
  virtual ~OrderingPolicy() = default;

  virtual std::string name() const = 0;

  /// Drop all state. `store` outlives the policy and always contains every
  /// job previously passed to on_submit.
  virtual void reset(const sim::Machine& machine, const JobStore& store) = 0;

  /// A job entered the wait queue.
  virtual void on_submit(JobId id, Time now) = 0;

  /// A job left the wait queue (it was started).
  virtual void on_remove(JobId id, Time now) = 0;

  /// Current queue order, highest priority first. Invalidated by any
  /// mutation.
  virtual const std::vector<JobId>& order() const = 0;

  /// Increments whenever the *relative order* of already-queued jobs may
  /// have changed (appends and removals do not count). Conservative
  /// backfilling replans its reservations when this moves.
  virtual std::uint64_t version() const noexcept = 0;
};

/// First-Come-First-Serve (paper §5.1): jobs ordered by submission time.
/// "It is fair as the completion time of each job is independent of any
/// job submitted later", needs no execution-time knowledge, and is the
/// order the classical Garey&Graham dispatcher ties-break with (§5.3).
class FcfsOrder final : public OrderingPolicy {
 public:
  std::string name() const override { return "FCFS"; }
  void reset(const sim::Machine& machine, const JobStore& store) override;
  void on_submit(JobId id, Time now) override;
  void on_remove(JobId id, Time now) override;
  const std::vector<JobId>& order() const override { return queue_; }
  std::uint64_t version() const noexcept override { return 0; }

 private:
  std::vector<JobId> queue_;
};

/// FCFS within priority classes, higher class first (the policy layer's
/// Example 1: drug-design jobs "must be executed as soon as possible").
/// A newly submitted high-priority job is placed ahead of every waiting
/// lower-priority job but never preempts running ones (the machine has no
/// time sharing).
class PriorityFcfsOrder final : public OrderingPolicy {
 public:
  std::string name() const override { return "PRIO-FCFS"; }
  void reset(const sim::Machine& machine, const JobStore& store) override;
  void on_submit(JobId id, Time now) override;
  void on_remove(JobId id, Time now) override;
  const std::vector<JobId>& order() const override { return queue_; }
  /// Insertions can place a job mid-queue, which changes relative order
  /// for dispatchers holding reservations; bump the version then.
  std::uint64_t version() const noexcept override { return version_; }

 private:
  const JobStore* store_ = nullptr;
  std::vector<JobId> queue_;
  std::uint64_t version_ = 1;
};

/// Shared machinery for SMART and PSRS: both are off-line algorithms that
/// the paper adapts by (a) using them only to compute an *order* for the
/// currently waiting jobs and (b) recomputing when the wait queue holds
/// too many jobs the last plan never saw:
///
///   "the schedule is recalculated when the ratio between the already
///    scheduled jobs in the wait queue to all the jobs in this queue
///    exceeds a certain value. In the example a ratio of 2/3 is used."
///
/// We read this as: recompute as soon as the fraction of *planned* jobs in
/// the queue drops below the threshold (new arrivals are unplanned).
class ReplanningOrder : public OrderingPolicy {
 public:
  explicit ReplanningOrder(double planned_ratio_threshold = 2.0 / 3.0);

  void reset(const sim::Machine& machine, const JobStore& store) override;
  void on_submit(JobId id, Time now) override;
  void on_remove(JobId id, Time now) override;
  const std::vector<JobId>& order() const override { return queue_; }
  std::uint64_t version() const noexcept override { return version_; }

  /// Number of plan recomputations so far (introspection for tests).
  std::uint64_t replans() const noexcept { return replans_; }

 protected:
  /// Compute the full order of `jobs` (all currently waiting), best first.
  virtual std::vector<JobId> plan(const std::vector<JobId>& jobs) const = 0;

  const JobStore& store() const { return *store_; }
  int machine_nodes() const noexcept { return machine_nodes_; }

 private:
  void maybe_replan();

  double threshold_;
  const JobStore* store_ = nullptr;
  int machine_nodes_ = 1;
  std::vector<JobId> queue_;  // planned jobs ... unplanned tail (FCFS)
  std::size_t planned_ = 0;   // first `planned_` entries came from plan()
  std::uint64_t version_ = 1;
  std::uint64_t replans_ = 0;
};

}  // namespace jsched::core
