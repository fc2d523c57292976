#include "metrics/objectives.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "metrics/streaming.h"

namespace jsched::metrics {
namespace {

void require_jobs(const sim::Schedule& s, const char* what) {
  if (s.size() == 0) {
    throw std::invalid_argument(std::string(what) + " of an empty schedule");
  }
}

RecordSums sums_of(const sim::Schedule& s) {
  RecordSums sums;
  for (const auto& r : s.records()) sums.add(r);
  return sums;
}

/// RecordSums over the records of `s` selected by `pred`.
RecordSums sums_if(
    const sim::Schedule& s,
    const std::function<bool(JobId, const sim::JobRecord&)>& pred) {
  RecordSums sums;
  for (JobId id = 0; id < s.size(); ++id) {
    if (pred(id, s[id])) sums.add(s[id]);
  }
  return sums;
}

}  // namespace

double average_response_time(const sim::Schedule& s) {
  require_jobs(s, "average_response_time");
  return sums_of(s).art();
}

double average_weighted_response_time(const sim::Schedule& s) {
  require_jobs(s, "average_weighted_response_time");
  return sums_of(s).awrt();
}

double weight_normalized_response_time(const sim::Schedule& s) {
  require_jobs(s, "weight_normalized_response_time");
  const RecordSums sums = sums_of(s);
  return sums.busy > 0.0 ? sums.weighted_response / sums.busy : 0.0;
}

double average_response_time_if(
    const sim::Schedule& s,
    const std::function<bool(JobId, const sim::JobRecord&)>& pred) {
  const RecordSums sums = sums_if(s, pred);
  return sums.jobs == 0 ? 0.0 : sums.art();
}

double average_weighted_response_time_if(
    const sim::Schedule& s,
    const std::function<bool(JobId, const sim::JobRecord&)>& pred) {
  const RecordSums sums = sums_if(s, pred);
  return sums.jobs == 0 ? 0.0 : sums.awrt();
}

double average_wait_time(const sim::Schedule& s) {
  require_jobs(s, "average_wait_time");
  return sums_of(s).mean_wait();
}

double average_bounded_slowdown(const sim::Schedule& s, Duration tau) {
  require_jobs(s, "average_bounded_slowdown");
  double sum = 0.0;
  for (const auto& r : s.records()) {
    const double p =
        static_cast<double>(std::max<Duration>(r.end - r.start, tau));
    sum += static_cast<double>(r.response()) / p;
  }
  return sum / static_cast<double>(s.size());
}

Time makespan(const sim::Schedule& s) { return s.makespan(); }

double utilization(const sim::Schedule& s) {
  return sums_of(s).utilization(s.machine().nodes);
}

double idle_node_seconds(const sim::Schedule& s, Time frame_start,
                         Time frame_end) {
  if (frame_end <= frame_start) {
    throw std::invalid_argument("idle_node_seconds: empty frame");
  }
  double busy = 0.0;
  for (const auto& r : s.records()) {
    const Time lo = std::max(r.start, frame_start);
    const Time hi = std::min(r.end, frame_end);
    if (hi > lo) busy += static_cast<double>(r.nodes) * static_cast<double>(hi - lo);
  }
  const double total = static_cast<double>(s.machine().nodes) *
                       static_cast<double>(frame_end - frame_start);
  return total - busy;
}

double fraction_within(const sim::Schedule& s, const workload::Workload& w,
                       std::int32_t priority_class, Duration deadline) {
  std::size_t total = 0;
  std::size_t within = 0;
  for (JobId id = 0; id < s.size(); ++id) {
    if (w.job(id).priority_class != priority_class) continue;
    ++total;
    if (s[id].response() <= deadline) ++within;
  }
  return total == 0 ? 1.0
                    : static_cast<double>(within) / static_cast<double>(total);
}

double class_average_response_time(const sim::Schedule& s,
                                   const workload::Workload& w,
                                   std::int32_t priority_class) {
  return average_response_time_if(s, [&](JobId id, const sim::JobRecord&) {
    return w.job(id).priority_class == priority_class;
  });
}

Objective unweighted_objective() {
  return {"average response time",
          [](const sim::Schedule& s) { return average_response_time(s); },
          true};
}

Objective weighted_objective() {
  return {"average weighted response time",
          [](const sim::Schedule& s) {
            return average_weighted_response_time(s);
          },
          true};
}

}  // namespace jsched::metrics
