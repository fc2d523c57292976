// Streaming metric aggregation: a sim::RecordSink folding each finished
// JobRecord into scalar accumulators as the bounded-memory simulation
// emits it.
//
// This is the one implementation of every per-schedule figure: ART, AWRT,
// wait, makespan, utilization, the schedule fingerprint and the
// ResilienceReport. A materialized Schedule is replayed through it
// (`aggregate`), and the Schedule-only objectives of objectives.h read the
// same RecordSums, so batch and streamed runs agree by construction: both
// perform the same floating-point additions in JobId order. Attempts and
// capacity events are O(# failures); they are buffered and folded at
// finish(), after the records.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "metrics/resilience.h"
#include "sim/schedule.h"
#include "sim/streaming.h"
#include "util/time.h"
#include "workload/workload.h"

namespace jsched::metrics {

/// Left-to-right sums over job records, the fold behind ART, AWRT, wait,
/// makespan and utilization. A record's weight is its resource
/// consumption as executed: nodes x (end - start), so a cancelled job
/// weighs its upper limit.
struct RecordSums {
  std::size_t jobs = 0;
  double response = 0.0;
  double weighted_response = 0.0;  // sum of weight x response
  double wait = 0.0;
  double busy = 0.0;  // sum of weights: node-seconds of final attempts
  Time makespan = 0;

  void add(const sim::JobRecord& r) noexcept {
    ++jobs;
    const double resp = static_cast<double>(r.response());
    const double weight =
        static_cast<double>(r.nodes) * static_cast<double>(r.end - r.start);
    response += resp;
    weighted_response += weight * resp;
    wait += static_cast<double>(r.wait());
    busy += weight;
    makespan = std::max(makespan, r.end);
  }

  /// Means over `jobs` (NaN when no record was added).
  double art() const noexcept {
    return response / static_cast<double>(jobs);
  }
  double awrt() const noexcept {
    return weighted_response / static_cast<double>(jobs);
  }
  double mean_wait() const noexcept {
    return wait / static_cast<double>(jobs);
  }
  /// busy / (machine_nodes x makespan); 0 when makespan is 0.
  double utilization(int machine_nodes) const noexcept {
    return makespan > 0 ? busy / (static_cast<double>(machine_nodes) *
                                  static_cast<double>(makespan))
                        : 0.0;
  }
};

/// Everything run_one derives from a materialized Schedule, computed
/// without one.
struct StreamedMetrics {
  std::size_t jobs = 0;
  double art = 0.0;   // metrics::average_response_time
  double awrt = 0.0;  // metrics::average_weighted_response_time
  double wait = 0.0;  // metrics::average_wait_time
  Time makespan = 0;
  double utilization = 0.0;
  std::uint64_t schedule_fnv = 0;  // sim::schedule_fingerprint
  ResilienceReport resilience;
};

/// Sink that aggregates as the simulation runs. O(1) state per record;
/// O(#kills + #capacity steps) total — independent of the job count.
class StreamingAggregator final : public sim::RecordSink {
 public:
  explicit StreamingAggregator(int machine_nodes);

  void on_record(JobId id, const sim::JobRecord& record,
                 const Job& j) override;
  void on_attempt(const sim::AttemptRecord& attempt) override;
  void on_capacity_event(Time t, int capacity) override;

  std::size_t jobs() const noexcept { return sums_.jobs; }

  /// Finalize. Throws std::invalid_argument on an empty stream, mirroring
  /// the batch metrics' refusal to average an empty schedule.
  StreamedMetrics finish() const;

 private:
  int machine_nodes_;
  RecordSums sums_;
  double useful_ = 0.0;
  sim::ScheduleHasher records_hash_;  // over the records seen so far
  std::vector<sim::AttemptRecord> attempts_;
  std::vector<std::pair<Time, int>> capacity_events_;
};

/// A finished schedule replayed through a fresh aggregator: its records
/// in JobId order, then its killed attempts, then its capacity events.
/// simulate_stream's sink folds the same run to the same state.
StreamingAggregator aggregate(const sim::Schedule& s,
                              const workload::Workload& w);

}  // namespace jsched::metrics
