#include "core/easy_backfill.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace jsched::core {

namespace {

constexpr auto by_end = [](const auto& a, const auto& b) {
  return a.at < b.at;
};

/// Insert `e` into `ends`, kept sorted by estimated end.
template <typename End>
void insert_sorted(std::vector<End>& ends, End e) {
  ends.insert(std::upper_bound(ends.begin(), ends.end(), e, by_end), e);
}

}  // namespace

void EasyBackfillDispatch::reset(const sim::Machine&, const JobStore& store) {
  store_ = &store;
  queue_.clear();
  stats_ = {};
  running_ends_.clear();
}

void EasyBackfillDispatch::on_start(JobId id, Time now) {
  queue_.erase(id);
  const Job& j = store_->get(id);
  insert_sorted(running_ends_, End{now + j.estimate, j.nodes});
}

void EasyBackfillDispatch::on_complete(JobId id, Time, Time estimated_end,
                                       const std::vector<JobId>&) {
  // Jobs with the same end and width are interchangeable here.
  const End done{estimated_end, store_->get(id).nodes};
  const auto [first, last] = std::equal_range(
      running_ends_.begin(), running_ends_.end(), done, by_end);
  const auto it = std::find_if(
      first, last, [&](const End& e) { return e.nodes == done.nodes; });
  if (it == last) {
    throw std::logic_error(
        "EasyBackfillDispatch: completion for job not started");
  }
  running_ends_.erase(it);
}

void EasyBackfillDispatch::adopt(Time now, const std::vector<JobId>& order,
                                 const std::vector<RunningJob>& running) {
  running_ends_.clear();
  for (const RunningJob& r : running) {
    insert_sorted(running_ends_, End{r.estimated_end, r.nodes});
  }
  on_reorder(order, now);
}

std::optional<EasyBackfillDispatch::Shadow>
EasyBackfillDispatch::ordered_shadow(Time now, int free_nodes,
                                     int need) const {
  auto r = running_ends_.begin();
  auto s = start_ends_.begin();
  const auto r_end = running_ends_.end();
  const auto s_end = start_ends_.end();
  Time shadow = now;
  int avail = free_nodes;
  while (r != r_end || s != s_end) {
    shadow = s == s_end || (r != r_end && r->at <= s->at) ? r->at : s->at;
    // The jobs ending at `shadow`: the walk adds all of them, or stops
    // among them once the head fits.
    int sum = 0;
    int lo = std::numeric_limits<int>::max();
    int hi = 0;
    const auto group = [&](auto& it, auto end) {
      for (; it != end && it->at == shadow; ++it) {
        sum += it->nodes;
        lo = std::min(lo, it->nodes);
        hi = std::max(hi, it->nodes);
      }
    };
    group(r, r_end);
    group(s, s_end);
    const int short_by = need - avail;
    if (sum >= short_by) {
      // The number of members the head takes, and so the extra nodes, is
      // the same in every order when the members share one width or when
      // the head needs all of them.
      if (lo == hi) {
        return Shadow{shadow, avail + (short_by + lo - 1) / lo * lo - need};
      }
      if (sum - lo < short_by) return Shadow{shadow, avail + sum - need};
      return std::nullopt;
    }
    avail += sum;
  }
  return Shadow{shadow, avail - need};
}

EasyBackfillDispatch::Shadow EasyBackfillDispatch::sorted_shadow(
    Time now, int free_nodes, int need, const std::vector<RunningJob>& running,
    const std::vector<JobId>& starts) {
  // Running jobs, then this round's greedy starts, in that order: where
  // the unstable sort leaves tied jobs depends on this exact sequence.
  active_.assign(running.begin(), running.end());
  for (JobId id : starts) {
    const Job& j = store_->get(id);
    active_.push_back({id, now, now + j.estimate, j.nodes});
  }
  std::sort(active_.begin(), active_.end(),
            [](const RunningJob& a, const RunningJob& b) {
              return a.estimated_end < b.estimated_end;
            });
  Time shadow = now;
  int avail = free_nodes;
  for (const auto& r : active_) {
    if (avail >= need) break;
    avail += r.nodes;
    shadow = r.estimated_end;
  }
  return Shadow{shadow, avail - need};
}

void EasyBackfillDispatch::select(
    Time now, int free_nodes, [[maybe_unused]] const std::vector<JobId>& order,
    const std::vector<RunningJob>& running, std::vector<JobId>& starts) {
  starts.clear();
  queue_.begin_round();
  assert(queue_.lists(order));
  assert(running_ends_.size() == running.size());
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

  // Reservation for the head: walk the estimated ends of the running jobs
  // and this round's greedy starts until enough nodes accumulate.
  ++stats_.shadows;
  start_ends_.clear();
  for (JobId id : starts) {
    const Job& j = store_->get(id);
    insert_sorted(start_ends_, End{now + j.estimate, j.nodes});
  }
  const int head_nodes = queue_.slot(head).nodes;
  std::optional<Shadow> shadow = ordered_shadow(now, free_nodes, head_nodes);
#ifndef NDEBUG
  if (shadow) {  // wherever the walk answers, the sort agrees
    const Shadow sorted =
        sorted_shadow(now, free_nodes, head_nodes, running, starts);
    assert(*shadow == sorted);
  }
#endif
  if (!shadow) {
    ++stats_.tie_sorts;
    shadow = sorted_shadow(now, free_nodes, head_nodes, running, starts);
  }
  // Whatever the head does not need may be held past the shadow time by
  // backfilled jobs.
  int extra = shadow->extra;
  const Duration window = shadow->time - now;

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
