#include "test_support.h"

#include <algorithm>
#include <stdexcept>

#include "util/journal.h"

namespace jsched::test {

Job make_job(Time submit, int nodes, Duration runtime, Duration estimate) {
  Job j;
  j.submit = submit;
  j.nodes = nodes;
  j.runtime = runtime;
  j.estimate = estimate == 0 ? runtime : estimate;
  return j;
}

workload::Workload make_workload(std::vector<Job> jobs) {
  return workload::Workload(std::move(jobs), "test");
}

sim::Schedule run(const core::AlgorithmSpec& spec, const workload::Workload& w,
                  int nodes) {
  sim::Machine m;
  m.nodes = nodes;
  auto scheduler = core::make_scheduler(spec);
  return sim::simulate(m, *scheduler, w);
}

std::uint64_t run_fingerprint(const core::AlgorithmSpec& spec,
                              const workload::Workload& w, int nodes) {
  return sim::schedule_fingerprint(run(spec, w, nodes));
}

workload::Workload small_mixed_workload() {
  // Designed around a 16-node machine: a wide job blocks the queue while
  // narrow jobs could backfill; estimates over-state runtimes to exercise
  // early completions.
  return make_workload({
      make_job(0, 8, 100, 120),     // 0: starts immediately
      make_job(0, 8, 50, 200),      // 1: starts immediately
      make_job(10, 16, 80, 100),    // 2: full-machine job, must wait
      make_job(20, 2, 30, 40),      // 3: backfill candidate
      make_job(25, 2, 500, 600),    // 4: long narrow job
      make_job(30, 12, 60, 90),     // 5
      make_job(40, 1, 10, 3600),    // 6: tiny job, wild over-estimate
      make_job(200, 4, 100, 150),   // 7
      make_job(210, 16, 40, 50),    // 8: another full-machine job
      make_job(220, 1, 20, 30),     // 9
  });
}

ScriptFeed::ScriptFeed(std::vector<serve::SubmitRecord> records)
    : records_(std::move(records)) {
  Time prev = 0;
  for (const serve::SubmitRecord& r : records_) {
    if (r.submit < 0) {
      throw std::invalid_argument("ScriptFeed: live (-1) submits not allowed");
    }
    if (r.submit < prev) {
      throw std::invalid_argument("ScriptFeed: submits must be sorted");
    }
    prev = r.submit;
  }
}

bool ScriptFeed::poll(Time vnow, std::vector<serve::SubmitRecord>& out) {
  while (pos_ < records_.size() && records_[pos_].submit <= vnow) {
    out.push_back(records_[pos_++]);
  }
  return pos_ < records_.size();
}

Time ScriptFeed::next_submit() const {
  return pos_ < records_.size() ? records_[pos_].submit : kTimeInfinity;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  util::AppendLog::for_each_line(
      path, [&](std::string_view line) { lines.emplace_back(line); });
  return lines;
}

void LinearEasyDispatch::select(Time now, int free_nodes,
                                const std::vector<JobId>& order,
                                const std::vector<core::RunningJob>& running,
                                std::vector<JobId>& starts) {
  starts.clear();
  ++stats_.selects;

  // Greedy phase: start head jobs while they fit.
  std::size_t head = 0;
  while (head < order.size()) {
    ++stats_.slots_examined;
    const Job& j = store_->get(order[head]);
    if (j.nodes > free_nodes) break;
    free_nodes -= j.nodes;
    starts.push_back(order[head]);
    ++head;
  }
  if (head >= order.size()) return;

  // Reservation for the head: walk estimated completions until enough
  // nodes accumulate. The active set (running jobs + this round's greedy
  // starts, in that order so the unstable sort below sees the exact same
  // sequence) is only materialized when a reservation is actually needed —
  // the everything-started case above skips the copy entirely.
  ++stats_.shadows;
  active_.assign(running.begin(), running.end());
  for (JobId id : starts) {
    const Job& j = store_->get(id);
    active_.push_back({id, now, now + j.estimate, j.nodes});
  }
  const Job& head_job = store_->get(order[head]);
  std::sort(active_.begin(), active_.end(),
            [](const core::RunningJob& a, const core::RunningJob& b) {
              return a.estimated_end < b.estimated_end;
            });
  Time shadow = now;
  int avail = free_nodes;
  for (const auto& r : active_) {
    if (avail >= head_job.nodes) break;
    avail += r.nodes;
    shadow = r.estimated_end;
  }
  // `avail` nodes are free once the head can start; whatever the head does
  // not need may be held past the shadow time by backfilled jobs.
  int extra = avail - head_job.nodes;

  // Backfill phase: any later job may start now if it fits and does not
  // disturb the head's reservation.
  for (std::size_t i = head + 1; i < order.size() && free_nodes > 0; ++i) {
    ++stats_.slots_examined;
    const Job& j = store_->get(order[i]);
    if (j.nodes > free_nodes) continue;
    const bool ends_before_shadow = now + j.estimate <= shadow;
    if (ends_before_shadow || j.nodes <= extra) {
      free_nodes -= j.nodes;
      if (!ends_before_shadow) extra -= j.nodes;
      starts.push_back(order[i]);
    }
  }
}

void LinearFirstFitDispatch::select(Time, int free_nodes,
                                    const std::vector<JobId>& order,
                                    const std::vector<core::RunningJob>&,
                                    std::vector<JobId>& starts) {
  starts.clear();
  ++stats_.selects;
  for (JobId id : order) {
    if (free_nodes == 0) break;
    ++stats_.slots_examined;
    const int need = store_->get(id).nodes;
    if (need <= free_nodes) {
      free_nodes -= need;
      starts.push_back(id);
    }
  }
}

}  // namespace jsched::test
