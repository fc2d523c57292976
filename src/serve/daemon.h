// The serve daemon: the simulator core as a long-lived online service.
//
// serve() drives one scheduler incrementally as submissions arrive from a
// Feed, making decisions against *virtual* time mapped from the wall
// clock: with `speed` = s, virtual second t falls due at wall nanosecond
// ceil(t * 1e9 / s) after the run's epoch, and the current virtual time is
// floor(elapsed * s). The ceil/floor pairing guarantees that sleeping
// until an event's due time always lands at vnow >= t, so paced runs never
// process an event early. speed = 0 is free-run: no pacing, the loop
// processes events as fast as it can (replay verification, benches, CI).
//
// Bit-identity with the offline simulator: every event instant runs
// through sim::EventCore (sim/event_core.h), the same kernel behind
// sim::simulate and sim::simulate_stream, and the loop refuses to process
// any event at t >= Feed::next_submit(), so equal-time arrival batches
// reach the scheduler together just as a replayed trace delivers them
// offline. Serving a trace through a JobSourceFeed therefore produces the
// *same schedule fingerprint* as sim::simulate on the same workload, which
// is the acceptance test for the whole subsystem. What serve() adds around
// the kernel is admission, pacing, the replay gate and the journal.
//
// Overload: an admission queue of `queue_capacity` buffers submissions
// between feed and scheduler. When it is full, kBlock applies backpressure
// (the feed is not polled; the transport's own buffering absorbs or blocks
// the producer) while kShed drops new submissions and counts them. An
// optional `max_backlog` bounds admission + scheduler queue together and
// sheds above it regardless of policy — the daemon's memory stays bounded
// under arbitrarily long overload instead of OOMing like an unbounded
// queue would. Under fault injection the backlog bound degrades
// gracefully: it scales with surviving capacity, so an outage tightens
// shedding instead of letting the queue balloon against a smaller machine.
//
// Faults: options.faults replays a fault::FailureTrace on the daemon's
// virtual timeline through the kernel's fault batch — completions, fault
// batch (kills: latest start first, larger id on ties), one
// on_capacity_change, arrivals, re-submissions, starts — so a served trace
// under a failure trace stays bit-identical to sim::simulate_stream with
// the same FaultOptions.
//
// Crash safety: options.journal points the loop at a write-ahead
// AdmissionJournal (serve/journal.h) that holds every consumed feed record
// before the daemon acts on it. Decisions follow from those, so they are
// hashed, not journaled: about once per 64 decisions, at an instant
// boundary, the loop journals its decision digest (below). A daemon
// restarted on a journal with history replays the admissions at their
// original virtual times, read back from the file one at a time rather
// than held in memory, re-derives the decisions, checks each journaled
// digest (JournalReplayError if another feed, spec, machine, fault trace
// or binary wrote it) and resumes the feed where the dead run left it:
// the final report, fingerprint included, is bit-identical to an
// uninterrupted run. The digest is the wrapping sum (mod 2^64) of one
// FNV-1a hash of (kind, id, epoch, t) per completion and start.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/factory.h"
#include "fault/fault.h"
#include "metrics/streaming.h"
#include "serve/feed.h"
#include "sim/machine.h"
#include "sim/scheduler.h"
#include "util/clock.h"
#include "util/latency.h"

namespace jsched::serve {

class AdmissionJournal;

enum class OverloadPolicy {
  kBlock,  // full queue: stop polling the feed (backpressure)
  kShed,   // full queue: drop the submission, count it
};

struct ServeOptions {
  sim::Machine machine;
  core::AlgorithmSpec spec;

  /// Virtual seconds per wall second; 0 = free-run (no pacing).
  double speed = 0.0;

  /// Admission queue bound (submissions accepted but not yet delivered to
  /// the scheduler). Must be >= 1.
  std::size_t queue_capacity = 4096;
  OverloadPolicy overload = OverloadPolicy::kBlock;
  /// Bound on admission queue + scheduler queue together; submissions
  /// beyond it are shed (counted separately) under either policy.
  /// 0 = unlimited.
  std::size_t max_backlog = 0;

  /// Time source (null = the real clock). Tests inject util::ManualClock:
  /// sleeps jump virtual time forward and decision latencies read 0 —
  /// fully deterministic serve runs.
  util::Clock* clock = nullptr;

  /// Cadence of one-line progress reports through `log` (0 = silent).
  std::chrono::milliseconds report_interval{0};
  std::function<void(const std::string&)> log;

  /// Polled once per loop: 0 = run, 1 = drain (stop polling the feed,
  /// finish admitted work at full speed, then return), >= 2 = abort now
  /// (return immediately; in-flight jobs are dropped from the metrics).
  /// tools/schedd wires this to util::SignalDrain::count.
  std::function<int()> poll_signal;

  /// Scheduler construction override (tests); null = core::make_scheduler.
  std::function<std::unique_ptr<sim::Scheduler>(const core::AlgorithmSpec&)>
      scheduler_factory;

  /// Node-failure injection on the daemon's virtual timeline, with the
  /// semantics of sim::SimOptions::faults (the same event kernel runs it);
  /// the default (null trace) serves a fault-free machine. The trace must
  /// be built for `machine.nodes` nodes.
  fault::FaultOptions faults{};

  /// Write-ahead admission journal (not owned; null = no journaling).
  /// When it holds history, serve() replays it before opening the feed:
  /// recovered admissions re-enter at their original virtual times,
  /// decisions re-derive deterministically and are checked against the
  /// journaled digests (serve/journal.h documents the records). The feed
  /// opens at the last journaled admission's instant, so a batch the kill
  /// split still reaches the scheduler in one round.
  AdmissionJournal* journal = nullptr;

  /// With a recovering journal: true when the feed re-delivers its stream
  /// from the beginning on restart (trace replay, tailed files) so the
  /// journaled consumed prefix must be skipped; false for live transports
  /// (sockets, stdin), which re-deliver nothing.
  bool feed_restarts_from_start = false;

  /// Crash drill: raise SIGKILL after this many journal appends by this
  /// run (0 = off; requires `journal`). The ServeRecovery tests and the
  /// CI serve-recovery job use it to die mid-stream, unclean, for real.
  std::size_t chaos_kill_after_appends = 0;
};

struct ServeReport {
  std::string scheduler_name;

  // Admission accounting.
  std::size_t submitted = 0;         // jobs delivered to the scheduler
  std::size_t completed = 0;         // jobs whose record was finalized
  std::size_t shed_capacity = 0;     // dropped: admission queue full (kShed)
  std::size_t shed_backlog = 0;      // dropped: max_backlog guard
  std::size_t rejected_invalid = 0;  // dropped: malformed / wider than machine
  std::size_t late_arrivals = 0;     // timed records clamped forward in time
  std::size_t delayed_admissions = 0;  // admitted late under kBlock pressure
  std::size_t dropped_on_drain = 0;    // polled but unadmitted at drain

  // Depth / decision instrumentation.
  std::size_t peak_admission_queue = 0;
  std::size_t peak_scheduler_queue = 0;
  std::size_t decisions = 0;  // event-loop scheduling rounds
  /// Wall nanoseconds per scheduling round (one kernel instant —
  /// completions, arrivals, select_starts and the record fold — plus its
  /// digest work), measured with the daemon's clock.
  util::LatencyHistogram decision_latency_ns;

  // Throughput.
  double wall_seconds = 0.0;
  double jobs_per_second = 0.0;       // completed / wall
  double decisions_per_second = 0.0;  // decisions / wall
  Time virtual_makespan = 0;

  // Fault / resilience accounting (moves only under options.faults).
  std::size_t killed = 0;    // running attempts killed by node failures
  std::size_t requeued = 0;  // re-submissions delivered after those kills
  std::size_t capacity_events = 0;  // trace instants applied
  int min_capacity = 0;      // lowest available-node count seen
  /// Copies of metrics.resilience fields (0 / 1.0 when !has_metrics), so
  /// report consumers need not re-derive them.
  double wasted_node_seconds = 0.0;
  double availability = 1.0;

  // Recovery accounting (moves only under options.journal).
  bool recovered = false;            // the journal held history at start
  std::size_t recovered_jobs = 0;    // admissions replayed from the journal
  std::size_t recovered_completed = 0;  // done by the last loaded digest
  std::size_t replayed_decisions = 0;   // made up to last_event_time()
  std::size_t journal_appends = 0;      // records appended by this run
  double recovery_replay_seconds = 0.0;  // wall time to drain the replay

  // Outcome flags.
  bool drained = false;  // ended by a drain request (signal)
  bool aborted = false;  // ended by an abort request (second signal)

  /// Full streamed metrics (ART, utilization, schedule_fnv, ...) over the
  /// completed jobs; valid iff has_metrics (at least one job completed).
  bool has_metrics = false;
  metrics::StreamedMetrics metrics;
  /// Convenience copy of metrics.schedule_fnv (0 when !has_metrics): the
  /// bit-identity witness against the offline simulator.
  std::uint64_t schedule_fnv = 0;
};

/// Run the daemon until the feed ends and all admitted work completes (or
/// a drain/abort is requested). Throws std::invalid_argument on bad
/// options and std::logic_error on scheduler contract violations, exactly
/// like the offline simulator.
ServeReport serve(Feed& feed, const ServeOptions& options);

}  // namespace jsched::serve
