#include "core/easy_backfill.h"

#include <algorithm>
#include <cassert>

namespace jsched::core {

void EasyBackfillDispatch::reset(const sim::Machine&, const JobStore& store) {
  store_ = &store;
  queue_.clear();
  stats_ = {};
}

void EasyBackfillDispatch::select(
    Time now, int free_nodes, [[maybe_unused]] const std::vector<JobId>& order,
    const std::vector<RunningJob>& running, std::vector<JobId>& starts) {
  starts.clear();
  queue_.begin_round();
  assert(queue_.lists(order));
  ++stats_.selects;
  std::uint64_t& examined = stats_.slots_examined;

  // Greedy phase: start head jobs while they fit.
  std::size_t head = queue_.next_live(0, examined);
  while (head != QueueIndex::npos && queue_.slot(head).nodes <= free_nodes) {
    free_nodes -= queue_.slot(head).nodes;
    starts.push_back(queue_.take(head));
    head = queue_.next_live(head + 1, examined);
  }
  if (head == QueueIndex::npos) return;
  // Without a job behind the blocked head that fits the free nodes there
  // is nothing to backfill, and the reservation would go unused.
  std::size_t p = queue_.find(head + 1, free_nodes, QueueIndex::kAnyEstimate,
                              0, examined);
  if (p == QueueIndex::npos) return;

  // Reservation for the head: walk estimated completions until enough
  // nodes accumulate. The active set (running jobs + this round's greedy
  // starts, in that order so the unstable sort below sees the exact same
  // sequence) is only materialized when a reservation is actually needed.
  ++stats_.shadows;
  active_.assign(running.begin(), running.end());
  for (JobId id : starts) {
    const Job& j = store_->get(id);
    active_.push_back({id, now, now + j.estimate, j.nodes});
  }
  const int head_nodes = queue_.slot(head).nodes;
  std::sort(active_.begin(), active_.end(),
            [](const RunningJob& a, const RunningJob& b) {
              return a.estimated_end < b.estimated_end;
            });
  Time shadow = now;
  int avail = free_nodes;
  for (const auto& r : active_) {
    if (avail >= head_nodes) break;
    avail += r.nodes;
    shadow = r.estimated_end;
  }
  // `avail` nodes are free once the head can start; whatever the head does
  // not need may be held past the shadow time by backfilled jobs.
  int extra = avail - head_nodes;
  const Duration window = shadow - now;

  // Backfill phase: any later job may start now if it fits and does not
  // disturb the head's reservation. Free and extra nodes only fall, so
  // each search resumes behind the previous start.
  for (p = queue_.find(p, free_nodes, window, extra, examined);
       p != QueueIndex::npos;
       p = queue_.find(p + 1, free_nodes, window, extra, examined)) {
    const QueueIndex::Slot& j = queue_.slot(p);
    free_nodes -= j.nodes;
    if (j.estimate > window) extra -= j.nodes;  // held past the shadow
    starts.push_back(queue_.take(p));
    if (free_nodes == 0) break;
  }
}

}  // namespace jsched::core
