// Resilience metrics for fault-injected schedules.
//
// A failure trace makes the classic objectives (paper §2.2) incomplete:
// two schedulers with equal response times may differ wildly in how much
// node time they burned re-executing killed work, and raw utilization
// mis-reads an outage as the scheduler's fault. These metrics separate the
// three quantities — what the machine executed, what of that was useful,
// and what was available to begin with.
#pragma once

#include <cstddef>

#include "sim/schedule.h"
#include "workload/workload.h"

namespace jsched::metrics {

struct ResilienceReport {
  /// Node-seconds the machine actually executed: every attempt (killed and
  /// final) times its width.
  double executed_node_seconds = 0.0;
  /// Goodput: node-seconds of fault-free work content delivered — each
  /// job's min(runtime, estimate) times its width. Equals executed in a
  /// fault-free run.
  double useful_node_seconds = 0.0;
  /// Re-executed (lost) work plus restart overhead: executed - useful.
  double wasted_node_seconds = 0.0;
  /// useful / executed; 1.0 when nothing was wasted (or nothing ran).
  double goodput_fraction = 1.0;

  /// Number of kill events (= re-submissions) over the whole run.
  std::size_t kills = 0;
  /// Number of distinct jobs killed at least once.
  std::size_t jobs_hit = 0;
  /// Largest re-submission count of any single job.
  std::size_t max_resubmissions = 0;

  /// Time-averaged fraction of the machine that was up over
  /// [0, makespan]: integral of capacity / (nodes * makespan). 1.0 without
  /// failures.
  double availability = 1.0;
  /// Executed node-seconds over *available* node-seconds — utilization
  /// measured against the capacity that actually existed, so an outage is
  /// not mistaken for scheduler idleness. Equals plain utilization in a
  /// fault-free run.
  double availability_weighted_utilization = 0.0;
};

/// Compute the report for `s` produced over `w` (StreamingAggregator's,
/// replayed). Works on fault-free schedules too (wasted = 0,
/// availability = 1); an empty schedule gets the default report.
ResilienceReport resilience(const sim::Schedule& s, const workload::Workload& w);

}  // namespace jsched::metrics
