// The event kernel: the one implementation of the paper's on-line model
// step (§2) behind sim::simulate, sim::simulate_stream and serve::serve.
//
// A driver owns the clock and the arrivals; the kernel owns everything that
// happens at one event instant t, in this order:
//
//   next_event(a)  earliest of the driver's next arrival a, the next
//                  completion, the next failure-trace event and a
//                  scheduler wakeup that strictly advances time;
//   begin(t)       completions at t (before faults: a job ending exactly
//                  when its nodes fail has completed), then every trace
//                  event at t — while usage exceeds capacity, the running
//                  job with the latest start (larger id on ties) is killed
//                  — then ONE on_capacity_change for the net step;
//   arrive(j, t)   each fresh arrival at t, in JobId order;
//   finish(t)      re-submissions of the jobs killed at t, the
//                  select_starts loop with the scheduler-contract checks,
//                  then the fold of every final record into the RecordSink
//                  in JobId order.
//
// Jobs and records stay where the driver already keeps them (a Workload and
// Schedule, or a JobWindow over the live ids), reached through JobTable.
// The kernel keeps per id only its attempt epoch and phase, plus remaining
// life and restart overhead for jobs a failure actually killed. Faults are
// a runtime branch: with no active trace the kill path and its running set
// are never touched, and schedules are those of a fault-free machine.
#pragma once

#include <cassert>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "sim/machine.h"
#include "sim/schedule.h"
#include "sim/scheduler.h"
#include "workload/job.h"

namespace jsched::sim {

/// Visitor receiving the simulation's output as it becomes final.
/// `on_record` is called exactly once per job, in JobId order; attempts
/// arrive in kill order and capacity events in trace order — the same
/// orders the materializing Schedule stores them in.
class RecordSink {
 public:
  virtual ~RecordSink() = default;

  /// Final record of job `id` (its workload entry is `j`). The references
  /// are only valid during the call.
  virtual void on_record(JobId id, const JobRecord& record, const Job& j) = 0;

  /// A killed execution attempt (fault injection only).
  virtual void on_attempt(const AttemptRecord& attempt) { (void)attempt; }

  /// A machine capacity step: available nodes after the step.
  virtual void on_capacity_event(Time t, int capacity) {
    (void)t;
    (void)capacity;
  }
};

/// Where a driver keeps the job and the record of every id the kernel has
/// not yet folded. The kernel only asks for ids in [frontier, arrived).
class JobTable {
 public:
  virtual ~JobTable() = default;
  virtual const Job& job(JobId id) const = 0;
  virtual JobRecord& record(JobId id) = 0;
};

/// A JobTable over the live ids of a stream: jobs are pushed in JobId order
/// and dropped below the kernel's fold frontier after each round.
class JobWindow final : public JobTable {
 public:
  /// Appends `j` (whose id must follow the last pushed one); returns the
  /// stored copy, valid until trim() drops it.
  const Job& push(const Job& j) {
    assert(j.id == base_ + entries_.size());
    entries_.push_back({j, {}});
    return entries_.back().job;
  }
  /// Drops every id below `frontier`.
  void trim(JobId frontier) {
    for (; base_ < frontier; ++base_) entries_.pop_front();
  }
  std::size_t size() const noexcept { return entries_.size(); }

  const Job& job(JobId id) const override { return entries_[id - base_].job; }
  JobRecord& record(JobId id) override { return entries_[id - base_].record; }

 private:
  struct Entry {
    Job job;
    JobRecord record;
  };
  std::deque<Entry> entries_;
  JobId base_ = 0;  // id of entries_.front()
};

/// Runs the event instants of one simulation, in the call protocol of the
/// file comment: next_event, then begin / arrive... / finish at its time.
class EventCore {
 public:
  /// One attempt of one job: serve() hashes completions and starts as
  /// these into its decision digest (the epoch counts the job's earlier
  /// killed attempts).
  struct Attempt {
    JobId id;
    std::uint32_t epoch;
  };

  /// Validates the fault options against `machine` (std::invalid_argument)
  /// and resets `scheduler`. `measure_cpu` brackets every scheduler callback
  /// except next_wakeup and queue_length with the steady clock, and reads
  /// the thread CPU and steady clocks once here for scheduler_cpu_seconds();
  /// off, no clock is read.
  EventCore(const Machine& machine, Scheduler& scheduler, JobTable& table,
            RecordSink& sink, const fault::FaultOptions& faults,
            bool measure_cpu);

  EventCore(const EventCore&) = delete;
  EventCore& operator=(const EventCore&) = delete;

  /// Time of the next event given the driver's next arrival
  /// (kTimeInfinity: none). kTimeInfinity when nothing is left to happen.
  Time next_event(Time next_arrival);
  /// Throws std::logic_error: jobs are pending but no event is left.
  [[noreturn]] void starved() const;

  void begin(Time t);
  /// Delivers a fresh arrival; `job.id` must be the next unarrived id.
  void arrive(const Job& job, Time t);
  void finish(Time t);

  /// The last instant begun (-1 before the first).
  Time now() const noexcept { return now_; }
  /// Arrived jobs whose final completion is still ahead.
  std::size_t undone() const noexcept { return undone_; }
  /// Lowest id whose record has not been folded (= records folded).
  JobId frontier() const noexcept { return frontier_; }
  int capacity() const noexcept { return capacity_; }

  // This round: completions and kills after begin(), starts after finish().
  const std::vector<Attempt>& completed() const noexcept { return completed_; }
  const std::vector<JobId>& killed() const noexcept { return killed_; }
  bool capacity_changed() const noexcept { return capacity_changed_; }
  const std::vector<Attempt>& started() const noexcept { return started_; }

  /// Latest end over the folded records.
  Time makespan() const noexcept { return makespan_; }
  /// Peak scheduler queue length seen at the end of a round.
  std::size_t max_queue_length() const noexcept { return max_queue_length_; }
  /// Scheduler CPU seconds so far (0 without measure_cpu): the summed
  /// callback brackets times the run's on-CPU share, min(1, thread CPU /
  /// wall) since construction. Reads both clocks, so a driver calls it once,
  /// right after its last round.
  double scheduler_cpu_seconds() const noexcept;

 private:
  struct Completion {
    Time t;
    JobId id;
    std::uint32_t epoch;  // the attempt it ends; stale once the job is killed
    bool operator>(const Completion& o) const noexcept {
      return t != o.t ? t > o.t : id > o.id;
    }
  };
  /// Per id in [frontier, arrived): 4 bytes, so a wide job starved for
  /// most of a trace holds back little memory behind the fold frontier.
  struct IdState {
    std::uint32_t epoch : 30 = 0;  // killed attempts so far
    std::uint32_t running : 1 = 0;
    std::uint32_t done : 1 = 0;
  };
  /// Ground truth carried across the attempts of a killed job: remaining
  /// fault-free lifetime, restart overhead owed at the next start, and the
  /// overhead included in the current attempt (its first charged seconds
  /// are restart work, not progress).
  struct Resume {
    Duration rem_life;
    Duration pending_overhead = 0;
    Duration charged_overhead = 0;
  };

  template <typename Fn>
  void timed(Fn&& fn);
  IdState& state(JobId id) { return states_[id - frontier_]; }
  void start(JobId id, Time t);
  void kill_latest(Time t);

  Machine machine_;
  Scheduler& scheduler_;
  JobTable& table_;
  RecordSink& sink_;
  const fault::FailureTrace* trace_;  // null when faults are inactive
  fault::RecoveryOptions recovery_;
  bool measure_cpu_;

  std::priority_queue<Completion, std::vector<Completion>, std::greater<>>
      completions_;
  std::deque<IdState> states_;  // ids [frontier_, arrived_)
  JobId frontier_ = 0;
  JobId arrived_ = 0;
  std::size_t undone_ = 0;
  int capacity_;
  int free_;
  std::size_t next_fault_ = 0;
  Time now_ = -1;
  /// Running jobs by (start, id), kept only under faults: the victim of a
  /// kill is the last element.
  std::set<std::pair<Time, JobId>> running_;
  std::unordered_map<JobId, Resume> resume_;  // killed jobs not yet done

  std::vector<Attempt> completed_;
  std::vector<JobId> killed_;
  bool capacity_changed_ = false;
  std::vector<Attempt> started_;
  std::vector<JobId> starts_;  // select_starts buffer

  Time makespan_ = 0;
  std::size_t max_queue_length_ = 0;
  // measure_cpu only: the summed callback brackets, and both clocks at
  // construction.
  std::chrono::steady_clock::duration callbacks_{};
  std::chrono::steady_clock::time_point wall0_{};
  double thread_cpu0_ = 0.0;
};

}  // namespace jsched::sim
