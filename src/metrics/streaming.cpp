#include "metrics/streaming.h"

#include <algorithm>
#include <stdexcept>

namespace jsched::metrics {
namespace {

/// ∫ capacity(t) dt over [0, makespan], clipping events past the makespan.
/// Capacity is `machine_nodes` before the first event.
double available_node_seconds(
    const std::vector<std::pair<Time, int>>& capacity_events,
    int machine_nodes, Time makespan) {
  double available = 0.0;
  Time prev_t = 0;
  int capacity = machine_nodes;
  for (const auto& [t, cap] : capacity_events) {
    const Time clipped = std::min(t, makespan);
    if (clipped > prev_t) {
      available +=
          static_cast<double>(capacity) * static_cast<double>(clipped - prev_t);
      prev_t = clipped;
    }
    if (t >= makespan) break;
    capacity = cap;
  }
  if (prev_t < makespan) {
    available += static_cast<double>(capacity) *
                 static_cast<double>(makespan - prev_t);
  }
  return available;
}

}  // namespace

StreamingAggregator::StreamingAggregator(int machine_nodes)
    : machine_nodes_(machine_nodes) {}

void StreamingAggregator::on_record(JobId, const sim::JobRecord& r,
                                    const Job& j) {
  sums_.add(r);
  useful_ += static_cast<double>(j.nodes) *
             static_cast<double>(std::min(j.runtime, j.estimate));
  records_hash_.add(r);
}

void StreamingAggregator::on_attempt(const sim::AttemptRecord& attempt) {
  attempts_.push_back(attempt);
}

void StreamingAggregator::on_capacity_event(Time t, int capacity) {
  capacity_events_.emplace_back(t, capacity);
}

StreamedMetrics StreamingAggregator::finish() const {
  if (sums_.jobs == 0) {
    throw std::invalid_argument("streamed metrics of an empty schedule");
  }
  StreamedMetrics m;
  m.jobs = sums_.jobs;
  m.art = sums_.art();
  m.awrt = sums_.awrt();
  m.wait = sums_.mean_wait();
  m.makespan = sums_.makespan;
  m.utilization = sums_.utilization(machine_nodes_);

  sim::ScheduleHasher hash = records_hash_;
  for (const sim::AttemptRecord& a : attempts_) hash.add(a);
  for (const auto& [t, capacity] : capacity_events_) {
    hash.add_capacity_event(t, capacity);
  }
  m.schedule_fnv = hash.value();

  ResilienceReport& r = m.resilience;
  r.executed_node_seconds = sums_.busy;
  r.useful_node_seconds = useful_;
  for (const sim::AttemptRecord& a : attempts_) {
    r.executed_node_seconds +=
        static_cast<double>(a.nodes) * static_cast<double>(a.end - a.start);
  }
  r.kills = attempts_.size();
  std::vector<JobId> hit;
  hit.reserve(attempts_.size());
  for (const sim::AttemptRecord& a : attempts_) hit.push_back(a.id);
  std::sort(hit.begin(), hit.end());
  for (std::size_t i = 0; i < hit.size();) {
    std::size_t j = i;
    while (j < hit.size() && hit[j] == hit[i]) ++j;
    ++r.jobs_hit;
    r.max_resubmissions = std::max(r.max_resubmissions, j - i);
    i = j;
  }
  r.wasted_node_seconds = r.executed_node_seconds - r.useful_node_seconds;
  r.goodput_fraction = r.executed_node_seconds > 0.0
                           ? r.useful_node_seconds / r.executed_node_seconds
                           : 1.0;
  if (sums_.makespan > 0) {
    const double available = available_node_seconds(
        capacity_events_, machine_nodes_, sums_.makespan);
    const double total = static_cast<double>(machine_nodes_) *
                         static_cast<double>(sums_.makespan);
    r.availability = total > 0.0 ? available / total : 1.0;
    r.availability_weighted_utilization =
        available > 0.0 ? r.executed_node_seconds / available : 0.0;
  }
  return m;
}

StreamingAggregator aggregate(const sim::Schedule& s,
                              const workload::Workload& w) {
  StreamingAggregator agg(s.machine().nodes);
  for (JobId id = 0; id < s.size(); ++id) agg.on_record(id, s[id], w.job(id));
  for (const sim::AttemptRecord& a : s.attempts) agg.on_attempt(a);
  for (const auto& [t, capacity] : s.capacity_events) {
    agg.on_capacity_event(t, capacity);
  }
  return agg;
}

}  // namespace jsched::metrics
