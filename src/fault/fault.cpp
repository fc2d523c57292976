#include "fault/fault.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace jsched::fault {

void RecoveryOptions::validate() const {
  if (policy == RecoveryPolicy::kCheckpointRestart && checkpoint_interval < 1) {
    throw std::invalid_argument(
        "RecoveryOptions: checkpoint_interval must be >= 1 second");
  }
  if (restart_overhead < 0) {
    throw std::invalid_argument(
        "RecoveryOptions: restart_overhead must be >= 0");
  }
}

FailureTrace make_failure_trace(std::vector<FailureEvent> events,
                                int machine_nodes) {
  if (machine_nodes < 1) {
    throw std::invalid_argument("make_failure_trace: machine_nodes < 1");
  }
  for (const FailureEvent& e : events) {
    if (e.t < 0) {
      throw std::invalid_argument("make_failure_trace: event before time 0");
    }
    if (e.delta == 0) {
      throw std::invalid_argument("make_failure_trace: zero-delta event");
    }
  }
  // Stable sort by time so same-instant deltas coalesce deterministically
  // whatever order the caller supplied them in.
  std::stable_sort(events.begin(), events.end(),
                   [](const FailureEvent& a, const FailureEvent& b) {
                     return a.t < b.t;
                   });

  FailureTrace trace;
  trace.machine_nodes = machine_nodes;
  trace.events.reserve(events.size());
  int down = 0;
  for (std::size_t i = 0; i < events.size();) {
    const Time t = events[i].t;
    int delta = 0;
    for (; i < events.size() && events[i].t == t; ++i) delta += events[i].delta;
    if (delta == 0) continue;  // zero-sum instant: no capacity step at all
    down -= delta;
    if (down < 0) {
      throw std::invalid_argument(
          "make_failure_trace: more nodes repaired than failed at time " +
          std::to_string(t));
    }
    if (down > machine_nodes) {
      throw std::invalid_argument(
          "make_failure_trace: more than machine_nodes down at time " +
          std::to_string(t));
    }
    trace.max_down = std::max(trace.max_down, down);
    trace.events.push_back({t, delta});
  }
  return trace;
}

}  // namespace jsched::fault
