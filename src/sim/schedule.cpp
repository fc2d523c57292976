#include "sim/schedule.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace jsched::sim {

Schedule::Schedule(Machine machine, std::size_t job_count,
                   std::string scheduler_name)
    : machine_(machine),
      scheduler_name_(std::move(scheduler_name)),
      records_(job_count) {
  machine_.validate();
}

std::uint64_t schedule_fingerprint(const Schedule& s) {
  ScheduleHasher h;
  for (const JobRecord& r : s.records()) h.add(r);
  for (const AttemptRecord& a : s.attempts) h.add(a);
  for (const auto& [t, capacity] : s.capacity_events) {
    h.add_capacity_event(t, capacity);
  }
  return h.value();
}

Time Schedule::makespan() const noexcept {
  Time m = 0;
  for (const auto& r : records_) m = std::max(m, r.end);
  return m;
}

namespace {

[[noreturn]] void fail(const std::string& msg) {
  throw ValidationError("schedule: " + msg);
}

/// "<what><id>: <rule>", e.g. "job 7: never completed".
[[noreturn]] void fail(const char* what, JobId id, const char* rule) {
  fail(what + std::to_string(id) + ": " + rule);
}

}  // namespace

void validate_schedule(const Schedule& s, const workload::Workload& w) {
  if (s.size() != w.size()) fail("job count mismatch");

  // Time each job ran in killed attempts. Sized only when there are
  // attempts; every attempt is checked to have positive length, so a job
  // has a killed attempt iff its entry is positive.
  std::vector<Duration> killed;
  if (!s.attempts.empty()) killed.assign(s.size(), 0);
  for (const AttemptRecord& a : s.attempts) {
    const auto bad = [&a](const char* rule) {
      fail("attempt of job ", a.id, rule);
    };
    if (a.id >= s.size()) bad("unknown job");
    const Job& j = w.job(a.id);
    if (a.nodes != j.nodes) bad("node count mismatch");
    if (a.start < j.submit) bad("started before submission");
    if (a.end <= a.start) bad("non-positive attempt");
    if (a.end > s[a.id].start) bad("killed attempt overlaps the final attempt");
    if (a.saved < 0 || a.saved > a.end - a.start) {
      bad("saved work outside the attempt");
    }
    killed[a.id] += a.end - a.start;
  }

  // Capacity sweep edges. At equal instants the simulator releases
  // completions first, then applies capacity steps (kills release within
  // the step), then starts jobs, so a node freed at t is usable at t.
  enum EdgeKind { kRelease = 0, kCapacity = 1, kAcquire = 2 };
  struct Edge {
    Time t;
    int kind;
    int value;  // usage delta, or the new capacity for kCapacity edges
  };
  std::vector<Edge> edges;
  edges.reserve(2 * (s.size() + s.attempts.size()) + s.capacity_events.size());

  for (JobId id = 0; id < s.size(); ++id) {
    const JobRecord& r = s[id];
    const Job& j = w.job(id);
    const auto bad = [id](const char* rule) { fail("job ", id, rule); };
    if (r.end == kTimeInfinity) bad("never completed");
    if (r.nodes != j.nodes) bad("node count mismatch");
    if (r.submit != j.submit) bad("submit time mismatch");
    if (r.start < j.submit) bad("started before submission");
    if (killed.empty() || killed[id] == 0) {
      if (r.cancelled) {
        if (r.end - r.start != j.estimate) {
          bad("cancelled at other than the upper limit");
        }
        if (j.runtime <= j.estimate) bad("cancelled although it fit its limit");
      } else if (r.end - r.start != j.runtime) {
        bad("ran for other than its runtime (no time sharing)");
      }
    } else {
      if (r.end <= r.start) bad("non-positive final attempt");
      // Conservation: across all attempts the job executed at least its
      // fault-free lifetime (requeued work is re-executed; restart
      // overhead only adds on top).
      if (killed[id] + (r.end - r.start) < std::min(j.runtime, j.estimate)) {
        bad("executed less than its lifetime");
      }
    }
    edges.push_back({r.start, kAcquire, r.nodes});
    edges.push_back({r.end, kRelease, -r.nodes});
  }
  for (const AttemptRecord& a : s.attempts) {
    edges.push_back({a.start, kAcquire, a.nodes});
    edges.push_back({a.end, kRelease, -a.nodes});
  }
  for (const auto& [t, capacity] : s.capacity_events) {
    edges.push_back({t, kCapacity, capacity});
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.t != b.t ? a.t < b.t : a.kind < b.kind;
  });
  int in_use = 0;
  int capacity = s.machine().nodes;
  for (const Edge& e : edges) {
    if (e.kind == kCapacity) {
      capacity = e.value;
    } else {
      in_use += e.value;
    }
    if (in_use > capacity) {
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
