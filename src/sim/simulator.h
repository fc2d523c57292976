// Discrete-event simulator driving an on-line scheduler over a workload:
// the batch driver of sim::EventCore (sim/event_core.h), which writes every
// record straight into the returned Schedule.
#pragma once

#include <cstdint>

#include "fault/fault.h"
#include "sim/machine.h"
#include "sim/schedule.h"
#include "sim/scheduler.h"
#include "workload/workload.h"

namespace jsched::sim {

struct SimOptions {
  /// Validate the produced schedule before returning (cheap: O(n log n)).
  bool validate = true;

  /// Measure CPU time spent in scheduler callbacks (Tables 7/8): two
  /// steady-clock reads per callback, scaled once per run by the thread's
  /// on-CPU share (thread CPU / wall, read at the start and end of the run;
  /// see EventCore::scheduler_cpu_seconds). Off, no clock is read.
  bool measure_scheduler_cpu = false;

  /// Fault injection. Inactive (the default), the event kernel skips its
  /// fault batch and running-set upkeep, and schedules are bit-identical
  /// to those of a build without fault support. Active, the kernel replays
  /// faults.trace, kills running jobs when a failure removes the nodes
  /// under them (victims: latest start first, larger id on ties), applies
  /// faults.recovery to decide the lost work, and re-submits the remainder
  /// at the kill instant. The trace must be built for exactly
  /// machine.nodes nodes.
  fault::FaultOptions faults{};
};

/// Run `scheduler` over `workload` on `machine`; returns the executed
/// schedule. The scheduler is reset() first, so a scheduler instance can be
/// reused across runs. Throws std::logic_error if the scheduler starts a
/// job that does not fit or that it was never given.
Schedule simulate(const Machine& machine, Scheduler& scheduler,
                  const workload::Workload& workload,
                  const SimOptions& options = {});

}  // namespace jsched::sim
