// Fault injection: node failure traces and recovery semantics.
//
// The paper evaluates schedulers on an ideal always-up machine; this
// subsystem opens the failure axis. A FailureTrace is a validated list of
// capacity deltas (nodes going down and coming back); the simulator
// replays it against any scheduler, killing running jobs when a failure
// removes the nodes under them, and a RecoveryPolicy decides how much of
// the killed work is lost before the job is re-submitted. With no trace the
// event kernel (sim/event_core.h) never enters its fault branch, so
// schedules stay bit-identical to a fault-free machine's.
#pragma once

#include <vector>

#include "util/time.h"

namespace jsched::fault {

/// What happens to a job killed by a node failure.
enum class RecoveryPolicy {
  /// All progress is lost; the job is re-submitted with its full remaining
  /// work (the classic batch-system requeue).
  kRequeueFromScratch,
  /// Progress is checkpointed every `checkpoint_interval` seconds of
  /// useful work; the re-submitted job resumes from the last checkpoint
  /// and pays `restart_overhead` seconds before making new progress.
  kCheckpointRestart,
};

struct RecoveryOptions {
  RecoveryPolicy policy = RecoveryPolicy::kRequeueFromScratch;
  /// Seconds of useful work between checkpoints (kCheckpointRestart only).
  Duration checkpoint_interval = kHour;
  /// Seconds of restart work (state reload) preceding any new progress
  /// after a kill (kCheckpointRestart only).
  Duration restart_overhead = 0;

  /// Throws std::invalid_argument on nonsensical values
  /// (checkpoint_interval < 1 under kCheckpointRestart, negative
  /// restart_overhead).
  void validate() const;
};

/// One capacity step: at time t, `delta` nodes leave (< 0) or rejoin (> 0)
/// the machine.
struct FailureEvent {
  Time t = 0;
  int delta = 0;

  friend bool operator==(const FailureEvent&, const FailureEvent&) = default;
};

/// A validated, replayable failure trace bound to a machine size.
///
/// Invariants (established by make_failure_trace): events are sorted by
/// strictly increasing time, every delta is nonzero (same-instant events
/// are coalesced; zero-sum instants dropped), and the cumulative number of
/// down nodes stays within [0, machine_nodes] at every prefix — capacity
/// never exceeds the machine and never goes below zero.
struct FailureTrace {
  std::vector<FailureEvent> events;
  int machine_nodes = 0;
  /// Peak number of simultaneously down nodes over the trace.
  int max_down = 0;

  bool empty() const noexcept { return events.empty(); }
};

/// Sort, coalesce and validate `events` into a FailureTrace for a machine
/// of `machine_nodes` nodes. Throws std::invalid_argument when an event
/// has t < 0 or delta == 0, or when the cumulative down count leaves
/// [0, machine_nodes].
FailureTrace make_failure_trace(std::vector<FailureEvent> events,
                                int machine_nodes);

/// The fault axis of a simulation. Default-constructed (null trace) or an
/// empty trace means "no faults": the event kernel skips its fault batch
/// and running-set upkeep and produces bit-identical schedules.
struct FaultOptions {
  /// Not owned; must outlive the simulation. nullptr disables injection.
  const FailureTrace* trace = nullptr;
  RecoveryOptions recovery{};

  bool active() const noexcept { return trace != nullptr && !trace->empty(); }
};

}  // namespace jsched::fault
