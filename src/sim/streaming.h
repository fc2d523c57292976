// Bounded-memory simulation: drive a scheduler from a workload::JobSource
// and fold each finished JobRecord into a visitor instead of retaining it.
//
// The materializing `simulate()` holds the whole workload and the whole
// Schedule, O(jobs) memory. This path holds only the *live window*:
// jobs that have arrived but whose records are not yet final. Arrivals
// happen in JobId order (ids are dense and submit-sorted), so the live
// window is a contiguous id range (a sim::JobWindow); after each event
// instant it is trimmed to the event kernel's fold frontier, and each
// record is handed to the sink exactly once, in JobId order — the order
// metrics::aggregate replays a materialized Schedule in, so streamed and
// batch runs fold the same records through the same aggregator.
//
// The event instant itself is sim::EventCore (sim/event_core.h), the same
// kernel behind simulate() and serve::serve(); this driver only pulls and
// validates the source. Decisions — and therefore records — match the
// materializing simulator exactly, with and without fault injection.
#pragma once

#include <cstddef>
#include <cstdint>

#include "fault/fault.h"
#include "sim/event_core.h"
#include "sim/machine.h"
#include "sim/schedule.h"
#include "sim/scheduler.h"
#include "workload/job_source.h"

namespace jsched::sim {

/// What the streaming loop itself measures (everything else — objectives,
/// fingerprints, resilience — lives in the sink).
struct StreamStats {
  std::size_t jobs = 0;
  Time makespan = 0;
  double scheduler_cpu_seconds = 0.0;
  std::size_t max_queue_length = 0;
  /// Peak size of the live window (arrived, record not yet emitted): the
  /// run's actual memory witness — simulator state is O(this), not O(jobs).
  std::size_t peak_live_jobs = 0;
};

/// Options for simulate_stream — SimOptions minus validate, which needs a
/// materialized Schedule.
struct StreamOptions {
  /// Measure CPU time spent in scheduler callbacks (Tables 7/8); identical
  /// semantics and cost to SimOptions::measure_scheduler_cpu.
  bool measure_scheduler_cpu = false;

  /// Fault injection; identical semantics to SimOptions::faults.
  fault::FaultOptions faults{};
};

/// Run `scheduler` over the stream from `source` on `machine`, folding
/// output into `sink`. Enforces the same scheduler contract as simulate()
/// (unknown job / started twice / oversubscription → std::logic_error) and
/// additionally validates the source stream as it is pulled (dense ids,
/// sorted submits, valid fields, jobs no wider than the machine →
/// std::invalid_argument).
StreamStats simulate_stream(const Machine& machine, Scheduler& scheduler,
                            workload::JobSource& source, RecordSink& sink,
                            const StreamOptions& options = {});

}  // namespace jsched::sim
