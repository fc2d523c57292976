#include "sim/schedule.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace jsched::sim {

Schedule::Schedule(Machine machine, std::size_t job_count,
                   std::string scheduler_name)
    : machine_(machine),
      scheduler_name_(std::move(scheduler_name)),
      records_(job_count) {
  machine_.validate();
}

std::uint64_t schedule_fingerprint(const Schedule& s) {
  // FNV-1a, folding each record field as its 64-bit representation.
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (JobId id = 0; id < s.size(); ++id) {
    const JobRecord& r = s[id];
    mix(static_cast<std::uint64_t>(r.submit));
    mix(static_cast<std::uint64_t>(r.start));
    mix(static_cast<std::uint64_t>(r.end));
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(r.nodes)));
    mix(r.cancelled ? 1u : 0u);
  }
  // Fault-injection extras. Both vectors are empty in fault-free runs, so
  // this folds nothing and the fingerprint equals the historical one.
  for (const AttemptRecord& a : s.attempts) {
    mix(static_cast<std::uint64_t>(a.id));
    mix(static_cast<std::uint64_t>(a.start));
    mix(static_cast<std::uint64_t>(a.end));
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(a.nodes)));
    mix(static_cast<std::uint64_t>(a.saved));
  }
  for (const auto& [t, capacity] : s.capacity_events) {
    mix(static_cast<std::uint64_t>(t));
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(capacity)));
  }
  return h;
}

Time Schedule::makespan() const noexcept {
  Time m = 0;
  for (const auto& r : records_) m = std::max(m, r.end);
  return m;
}

namespace {

/// Validity under fault injection: per-job conservation instead of exact
/// durations, and a capacity sweep against the recorded capacity steps.
void validate_faulty_schedule(const Schedule& s, const workload::Workload& w) {
  auto fail = [](const std::string& msg) { throw ValidationError("schedule: " + msg); };

  std::vector<Duration> executed(s.size(), 0);
  for (JobId id = 0; id < s.size(); ++id) {
    const JobRecord& r = s[id];
    const Job& j = w.job(id);
    std::ostringstream who;
    who << "job " << id << ": ";
    if (r.end == kTimeInfinity) fail(who.str() + "never completed");
    if (r.nodes != j.nodes) fail(who.str() + "node count mismatch");
    if (r.submit != j.submit) fail(who.str() + "submit time mismatch");
    if (r.start < j.submit) fail(who.str() + "started before submission");
    if (r.end <= r.start) fail(who.str() + "non-positive final attempt");
    executed[id] = r.end - r.start;
  }
  for (const AttemptRecord& a : s.attempts) {
    std::ostringstream who;
    who << "attempt of job " << a.id << ": ";
    if (a.id >= s.size()) fail(who.str() + "unknown job");
    const Job& j = w.job(a.id);
    if (a.nodes != j.nodes) fail(who.str() + "node count mismatch");
    if (a.start < j.submit) fail(who.str() + "started before submission");
    if (a.end <= a.start) fail(who.str() + "non-positive attempt");
    if (a.end > s[a.id].start) {
      fail(who.str() + "killed attempt overlaps the final attempt");
    }
    if (a.saved < 0 || a.saved > a.end - a.start) {
      fail(who.str() + "saved work outside the attempt");
    }
    executed[a.id] += a.end - a.start;
  }
  for (JobId id = 0; id < s.size(); ++id) {
    const Job& j = w.job(id);
    // Conservation: across all attempts the job must have executed at
    // least its fault-free lifetime (requeued work is re-executed; restart
    // overhead only adds on top).
    if (executed[id] < std::min(j.runtime, j.estimate)) {
      fail("job " + std::to_string(id) + ": executed less than its lifetime");
    }
  }

  // Capacity sweep against the time-varying capacity. At equal instants
  // the simulator releases completions first, then applies capacity steps
  // (kills release within the step), then starts jobs — mirror that order.
  enum EdgeKind { kRelease = 0, kCapacity = 1, kAcquire = 2 };
  struct Edge {
    Time t;
    int kind;
    int value;  // usage delta, or the new capacity for kCapacity edges
  };
  std::vector<Edge> edges;
  edges.reserve(2 * (s.size() + s.attempts.size()) + s.capacity_events.size());
  for (JobId id = 0; id < s.size(); ++id) {
    edges.push_back({s[id].start, kAcquire, s[id].nodes});
    edges.push_back({s[id].end, kRelease, -s[id].nodes});
  }
  for (const AttemptRecord& a : s.attempts) {
    edges.push_back({a.start, kAcquire, a.nodes});
    edges.push_back({a.end, kRelease, -a.nodes});
  }
  for (const auto& [t, capacity] : s.capacity_events) {
    edges.push_back({t, kCapacity, capacity});
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.kind != b.kind) return a.kind < b.kind;
    return a.value < b.value;
  });
  int in_use = 0;
  int capacity = s.machine().nodes;
  for (const Edge& e : edges) {
    if (e.kind == kCapacity) {
      capacity = e.value;
    } else {
      in_use += e.value;
    }
    if (in_use < 0) fail("negative usage at time " + std::to_string(e.t));
    if (in_use > capacity) {
      fail("node capacity exceeded at time " + std::to_string(e.t));
    }
  }
  if (in_use != 0) fail("dangling allocations after last completion");
}

}  // namespace

void validate_schedule(const Schedule& s, const workload::Workload& w) {
  auto fail = [](const std::string& msg) { throw ValidationError("schedule: " + msg); };
  if (s.size() != w.size()) fail("job count mismatch");
  if (!s.attempts.empty() || !s.capacity_events.empty()) {
    validate_faulty_schedule(s, w);
    return;
  }

  struct Edge {
    Time t;
    int delta;
  };
  std::vector<Edge> edges;
  edges.reserve(2 * s.size());

  for (JobId id = 0; id < s.size(); ++id) {
    const JobRecord& r = s[id];
    const Job& j = w.job(id);
    std::ostringstream who;
    who << "job " << id << ": ";
    if (r.end == kTimeInfinity) fail(who.str() + "never completed");
    if (r.nodes != j.nodes) fail(who.str() + "node count mismatch");
    if (r.submit != j.submit) fail(who.str() + "submit time mismatch");
    if (r.start < j.submit) fail(who.str() + "started before submission");
    if (r.cancelled) {
      if (r.end - r.start != j.estimate) {
        fail(who.str() + "cancelled at other than the upper limit");
      }
      if (j.runtime <= j.estimate) {
        fail(who.str() + "cancelled although it fit its limit");
      }
    } else {
      if (r.end - r.start != j.runtime) {
        fail(who.str() + "ran for other than its runtime (no time sharing)");
      }
    }
    edges.push_back({r.start, j.nodes});
    edges.push_back({r.end, -j.nodes});
  }

  // Capacity sweep: releases before acquisitions at equal times (a node
  // freed at t is usable by a job starting at t).
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.delta < b.delta;
  });
  int in_use = 0;
  for (const auto& e : edges) {
    in_use += e.delta;
    if (in_use > s.machine().nodes) {
      fail("node capacity exceeded at time " + std::to_string(e.t));
    }
    if (in_use < 0) fail("negative usage at time " + std::to_string(e.t));
  }
  if (in_use != 0) fail("dangling allocations after last completion");
}

workload::Workload as_executed_workload(const Schedule& s,
                                        const workload::Workload& w) {
  workload::Workload out;
  out.reserve(s.size() + s.attempts.size());
  for (JobId id = 0; id < s.size(); ++id) {
    const JobRecord& r = s[id];
    Job j = w.job(id);
    j.submit = r.submit;
    j.runtime = r.end - r.start;
    j.status = r.cancelled ? JobStatus::kCancelled : JobStatus::kCompleted;
    out.add(j);
  }
  for (const AttemptRecord& a : s.attempts) {
    if (a.end <= a.start) continue;  // killed at its start instant
    Job j = w.job(a.id);
    j.runtime = a.end - a.start;
    j.status = JobStatus::kFailed;
    out.add(j);
  }
  out.set_name(w.name() + "-executed");
  out.finalize();
  return out;
}

}  // namespace jsched::sim
