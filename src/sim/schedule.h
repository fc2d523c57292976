// The produced schedule: "an allocation of system resources to individual
// jobs for certain time periods" (paper §2). The simulator fills one of
// these; the metrics library evaluates it; the validator enforces the
// machine's validity constraints.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/machine.h"
#include "util/hash.h"
#include "util/time.h"
#include "workload/workload.h"

namespace jsched::sim {

/// Per-job outcome. Indexed by JobId in the owning Schedule.
struct JobRecord {
  Time submit = 0;
  Time start = 0;
  Time end = 0;  // completion (or cancellation) time
  int nodes = 0;
  /// True when the job hit its user-provided upper limit and was cancelled
  /// (Example 5, Rule 2).
  bool cancelled = false;

  Duration response() const noexcept { return end - submit; }
  Duration wait() const noexcept { return start - submit; }
};

/// One *killed* execution attempt of a job under fault injection. The
/// job's final (completing) attempt lives in its JobRecord; earlier
/// attempts ended by a node failure are appended here in kill order.
/// Empty in fault-free simulations.
struct AttemptRecord {
  JobId id = kInvalidJob;
  Time start = 0;
  Time end = 0;  // kill time
  int nodes = 0;
  /// Work carried over to the next attempt (checkpointed seconds);
  /// 0 under kRequeueFromScratch. (end - start) - saved is the attempt's
  /// lost work.
  Duration saved = 0;

  Duration lost() const noexcept { return (end - start) - saved; }
};

/// A complete executed schedule.
class Schedule {
 public:
  Schedule() = default;
  Schedule(Machine machine, std::size_t job_count, std::string scheduler_name);

  const Machine& machine() const noexcept { return machine_; }
  const std::string& scheduler_name() const noexcept { return scheduler_name_; }

  std::size_t size() const noexcept { return records_.size(); }
  const JobRecord& operator[](JobId id) const noexcept { return records_[id]; }
  const std::vector<JobRecord>& records() const noexcept { return records_; }
  /// Mutable record of job `id` (the event kernel writes starts in place).
  JobRecord& record(JobId id) noexcept { return records_[id]; }

  /// Completion time of the last job (0 for an empty schedule).
  Time makespan() const noexcept;

  /// CPU seconds spent inside the scheduler (paper Tables 7/8).
  double scheduler_cpu_seconds = 0.0;

  /// Peak number of simultaneously waiting jobs (backlog indicator, §6.1).
  std::size_t max_queue_length = 0;

  /// Queue length after each event instant (only filled when
  /// SimOptions::record_backlog is set): the §6.1 "larger job backlog
  /// during the simulation" as a plottable time series, one sample per
  /// instant (the event kernel's instants strictly increase).
  std::vector<std::pair<Time, std::size_t>> backlog;

  /// Killed execution attempts, in kill order (fault injection only;
  /// empty otherwise). metrics::resilience folds these into wasted-work
  /// and resubmission accounting.
  std::vector<AttemptRecord> attempts;

  /// Machine capacity steps: (time, available nodes *after* the step),
  /// one entry per failure-trace instant reached by the simulation.
  /// Capacity is machine().nodes before the first entry. Empty in
  /// fault-free simulations.
  std::vector<std::pair<Time, int>> capacity_events;

 private:
  Machine machine_;
  std::string scheduler_name_;
  std::vector<JobRecord> records_;
};

/// Incremental FNV-1a (64-bit) over a schedule's parts, each field folded
/// as its 64-bit value: add every JobRecord in JobId order (submit, start,
/// end, nodes, cancelled), then every killed attempt in kill order (id,
/// start, end, nodes, saved), then every capacity event (time, capacity).
/// schedule_fingerprint and metrics::StreamingAggregator both hash through
/// this, so a streamed run and its materialized Schedule fingerprint equal
/// by construction.
class ScheduleHasher {
 public:
  void add(const JobRecord& r) noexcept {
    mix(r.submit);
    mix(r.start);
    mix(r.end);
    mix(r.nodes);
    mix(r.cancelled ? 1 : 0);
  }
  void add(const AttemptRecord& a) noexcept {
    mix(a.id);
    mix(a.start);
    mix(a.end);
    mix(a.nodes);
    mix(a.saved);
  }
  void add_capacity_event(Time t, int capacity) noexcept {
    mix(t);
    mix(capacity);
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  void mix(std::int64_t v) noexcept {
    h_ = util::fnv1a_mix(h_, static_cast<std::uint64_t>(v));
  }

  std::uint64_t h_ = util::kFnvOffset;
};

/// ScheduleHasher over all of `s`. Attempts and capacity events are empty
/// in fault-free simulations, so fault-free fingerprints are unchanged from
/// before fault injection existed. Two schedules fingerprint equal iff they
/// are bit-identical as (per-job) start/end decisions: the check that an
/// optimization changed cost, never decisions, and that zero-failure runs
/// are untouched by fault support.
std::uint64_t schedule_fingerprint(const Schedule& s);

/// Thrown by validate_schedule. Still a std::logic_error (an invalid
/// schedule is a scheduler/simulator bug), but a distinct type so the eval
/// harness's error taxonomy can file it under `validation` instead of the
/// generic scheduler-contract violations the event loop throws.
class ValidationError : public std::logic_error {
 public:
  explicit ValidationError(const std::string& what) : std::logic_error(what) {}
};

/// Validity constraints of the target machine (paper §2): node capacity is
/// never exceeded at any instant, partitions are exclusive (implied by
/// capacity in the identical-node model), no job starts before submission,
/// every job runs for exactly its runtime (or is cancelled at its
/// estimate), and — since the machine has no time sharing — allocations are
/// contiguous in time.
///
/// Under fault injection a job with killed attempts gets a conservation
/// bound instead of the duration check: total executed time across all
/// its attempts covers at least its fault-free lifetime. Every other job
/// still runs exactly its runtime (or is cancelled at its estimate). The
/// capacity sweep checks usage against the *time-varying* capacity, with
/// releases and capacity steps applied before acquisitions at equal
/// instants (the simulator's own event order).
///
/// Throws sim::ValidationError describing the first violation.
void validate_schedule(const Schedule& s, const workload::Workload& w);

/// Export the executed schedule as an SWF-ready "as executed" trace: one
/// record per job with its *executed* lifetime (end - start) as the
/// runtime, status kCancelled when the job hit its Rule-2 upper limit and
/// kCompleted otherwise, plus one kFailed record per fault-killed attempt
/// (lifetime = elapsed time of the attempt; zero-length attempts are
/// dropped since a workload requires runtime >= 1). This is how killed
/// attempts survive a write_swf/read_swf round trip — they become the
/// status-0 ("failed") records a real archive trace would carry.
workload::Workload as_executed_workload(const Schedule& s,
                                        const workload::Workload& w);

}  // namespace jsched::sim
