#include "sim/event_core.h"

#include <algorithm>
#include <cassert>
#include <ctime>
#include <iterator>
#include <stdexcept>
#include <string>

namespace jsched::sim {
namespace {

using Clock = std::chrono::steady_clock;

/// Thread CPU time in seconds (Linux/glibc). A syscall (~370 ns on a 4-core
/// x86 VM, against ~45 ns for a vDSO steady-clock read), so the kernel takes
/// it twice per run rather than twice per callback.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

}  // namespace

template <typename Fn>
void EventCore::timed(Fn&& fn) {
  const Clock::time_point t0 =
      measure_cpu_ ? Clock::now() : Clock::time_point{};
  fn();
  if (measure_cpu_) callbacks_ += Clock::now() - t0;
}

double EventCore::scheduler_cpu_seconds() const noexcept {
  if (!measure_cpu_) return 0.0;
  // The brackets are disjoint parts of the run, so callbacks <= wall and the
  // product never exceeds the run's thread CPU. Unpreempted, the share is 1
  // and this is the callbacks' own time; with more threads than cores it
  // drops the share of the run the thread spent waiting for a core.
  const double wall = seconds(Clock::now() - wall0_);
  const double cpu = thread_cpu_seconds() - thread_cpu0_;
  const double callbacks = seconds(callbacks_);
  return wall > 0.0 ? callbacks * std::min(1.0, cpu / wall) : 0.0;
}

EventCore::EventCore(const Machine& machine, Scheduler& scheduler,
                     JobTable& table, RecordSink& sink,
                     const fault::FaultOptions& faults, bool measure_cpu)
    : machine_(machine),
      scheduler_(scheduler),
      table_(table),
      sink_(sink),
      trace_(faults.active() ? faults.trace : nullptr),
      recovery_(faults.recovery),
      measure_cpu_(measure_cpu),
      capacity_(machine.nodes),
      free_(machine.nodes) {
  if (trace_ != nullptr && trace_->machine_nodes != machine.nodes) {
    throw std::invalid_argument(
        "simulate: failure trace built for " +
        std::to_string(trace_->machine_nodes) +
        " nodes but the machine has " + std::to_string(machine.nodes));
  }
  if (trace_ != nullptr) recovery_.validate();
  if (measure_cpu_) {
    wall0_ = Clock::now();
    thread_cpu0_ = thread_cpu_seconds();
  }
  timed([&] { scheduler_.reset(machine_); });
}

Time EventCore::next_event(Time next_arrival) {
  // Purge completions of killed attempts so the next-event time is real
  // (only a kill leaves one behind). An id below the frontier is a dead
  // epoch of a job that has since finished.
  while (trace_ != nullptr && !completions_.empty()) {
    const Completion& top = completions_.top();
    if (top.id >= frontier_ && top.epoch == state(top.id).epoch) break;
    completions_.pop();
  }
  Time t = next_arrival;
  if (!completions_.empty()) t = std::min(t, completions_.top().t);
  if (trace_ != nullptr && next_fault_ < trace_->events.size()) {
    t = std::min(t, trace_->events[next_fault_].t);
  }
  // Honor a scheduler wakeup that strictly advances time (stale wakeups
  // are ignored so a buggy scheduler cannot stall the clock).
  const Time wake = scheduler_.next_wakeup(now_);
  if (wake > now_ && wake < t) t = wake;
  return t;
}

void EventCore::starved() const {
  throw std::logic_error("simulate: no events left but " +
                         std::to_string(undone_) + " jobs pending (" +
                         scheduler_.name() + " starved them)");
}

void EventCore::begin(Time t) {
  now_ = t;
  completed_.clear();
  killed_.clear();
  capacity_changed_ = false;

  // Completions at t, released before anything starts (a node freed at t
  // is available to a job starting at t). Draining the heap before
  // notifying brackets the whole batch once per instant.
  while (!completions_.empty() && completions_.top().t == t) {
    const Completion c = completions_.top();
    completions_.pop();
    if (c.id < frontier_) continue;  // stale: attempt of a finished job
    IdState& s = state(c.id);
    if (c.epoch != s.epoch) continue;  // stale: the attempt was killed
    free_ += table_.job(c.id).nodes;
    s.running = false;
    s.done = true;
    --undone_;
    if (trace_ != nullptr) {
      running_.erase({table_.record(c.id).start, c.id});
      if (s.epoch > 0) resume_.erase(c.id);
    }
    completed_.push_back({c.id, s.epoch});
  }
  if (!completed_.empty()) {
    timed([&] {
      for (const Attempt& a : completed_) scheduler_.on_complete(a.id, t);
    });
  }

  if (trace_ == nullptr) return;
  const std::vector<fault::FailureEvent>& events = trace_->events;
  while (next_fault_ < events.size() && events[next_fault_].t == t) {
    capacity_ += events[next_fault_].delta;
    free_ += events[next_fault_].delta;
    ++next_fault_;
    capacity_changed_ = true;
    while (free_ < 0) kill_latest(t);
    sink_.on_capacity_event(t, capacity_);
  }
  if (capacity_changed_) {
    timed([&] { scheduler_.on_capacity_change(t, capacity_); });
  }
}

void EventCore::kill_latest(Time t) {
  // The latest-started job loses the least work.
  const auto last = std::prev(running_.end());
  const auto [attempt_start, victim] = *last;
  running_.erase(last);
  const Job& j = table_.job(victim);
  IdState& s = state(victim);
  free_ += j.nodes;
  s.running = false;
  ++s.epoch;
  Resume& r =
      resume_.try_emplace(victim, Resume{std::min(j.runtime, j.estimate)})
          .first->second;
  // Progress excludes the attempt's restart overhead; checkpoints save
  // whole intervals of progress only.
  const Duration elapsed = t - attempt_start;
  const Duration progress = elapsed - std::min(elapsed, r.charged_overhead);
  const bool checkpointing =
      recovery_.policy == fault::RecoveryPolicy::kCheckpointRestart;
  const Duration saved = checkpointing
                             ? (progress / recovery_.checkpoint_interval) *
                                   recovery_.checkpoint_interval
                             : 0;
  r.rem_life -= saved;
  r.pending_overhead = checkpointing ? recovery_.restart_overhead : 0;
  sink_.on_attempt({victim, attempt_start, t, j.nodes, saved});
  timed([&] { scheduler_.on_complete(victim, t); });
  killed_.push_back(victim);
}

void EventCore::arrive(const Job& job, Time t) {
  assert(job.id == arrived_);
  states_.emplace_back();
  ++arrived_;
  ++undone_;
  // Submission is the runtime-free slice of the job (§2's on-line model).
  timed([&] { scheduler_.on_submit(job, t); });
}

void EventCore::finish(Time t) {
  // Re-submissions of the jobs killed at t. The scheduler sees a fresh
  // submission whose estimate covers the restart overhead plus the
  // remaining work plus the user's original slack — what the user would
  // request for the resumed job.
  for (const JobId id : killed_) {
    const Job& j = table_.job(id);
    const Resume& resume = resume_.at(id);
    Submission r(j);
    r.submit = t;
    r.estimate = resume.pending_overhead + resume.rem_life +
                 (j.estimate - std::min(j.runtime, j.estimate));
    timed([&] { scheduler_.on_submit(r, t); });
  }

  started_.clear();
  while (true) {
    timed([&] { scheduler_.select_starts(t, free_, starts_); });
    if (starts_.empty()) break;
    for (const JobId id : starts_) start(id, t);
  }
  max_queue_length_ = std::max(max_queue_length_, scheduler_.queue_length());

  // Fold final records in JobId order — the order every batch metric and
  // the schedule fingerprint iterate in — and forget their state.
  while (!states_.empty() && states_.front().done) {
    const JobRecord& rec = table_.record(frontier_);
    sink_.on_record(frontier_, rec, table_.job(frontier_));
    makespan_ = std::max(makespan_, rec.end);
    states_.pop_front();
    ++frontier_;
  }
}

void EventCore::start(JobId id, Time t) {
  if (id >= arrived_) {
    throw std::logic_error("simulate: scheduler started unknown job " +
                           std::to_string(id));
  }
  if (id < frontier_ || state(id).running || state(id).done) {
    throw std::logic_error("simulate: scheduler started job " +
                           std::to_string(id) + " twice");
  }
  const Job& j = table_.job(id);
  if (j.nodes > free_) {
    throw std::logic_error(
        "simulate: scheduler oversubscribed the machine with job " +
        std::to_string(id));
  }
  IdState& s = state(id);
  free_ -= j.nodes;
  s.running = true;
  // Rule 2: a job runs min(runtime, estimate); one whose true runtime
  // exceeds its estimate is cut off there and recorded as cancelled. A
  // restarted job runs its pending overhead plus its remaining life.
  Duration lifetime = std::min(j.runtime, j.estimate);
  if (s.epoch > 0) {
    Resume& r = resume_.at(id);
    r.charged_overhead = r.pending_overhead;
    r.pending_overhead = 0;
    lifetime = r.charged_overhead + r.rem_life;
  }
  table_.record(id) = {j.submit, t, t + lifetime, j.nodes,
                       j.runtime > j.estimate};
  completions_.push({t + lifetime, id, s.epoch});
  if (trace_ != nullptr) running_.emplace(t, id);
  started_.push_back({id, s.epoch});
}

}  // namespace jsched::sim
