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

void EasyBackfillDispatch::reset(const sim::Machine& machine,
                                 const JobStore& store) {
  store_ = &store;
  queue_.clear();
  stats_ = {};
  running_ends_.clear();
  // Every pick takes a node: no select grows the buffer after this.
  picked_.reserve(static_cast<std::size_t>(machine.nodes));
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
  queue_.unsettle();
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
    const std::vector<std::size_t>& greedy) {
  // Running jobs, then this round's greedy starts, in that order: where
  // the unstable sort leaves tied jobs depends on this exact sequence.
  active_.assign(running.begin(), running.end());
  for (std::size_t p : greedy) {
    const QueueIndex::Slot& j = queue_.slot(p);
    active_.push_back({j.id, now, now + j.estimate, j.nodes});
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

EasyBackfillDispatch::Outcome EasyBackfillDispatch::search(
    Time now, int free_nodes, std::size_t from, const Shadow& settled,
    const std::vector<RunningJob>& running, SelectStats& stats,
    std::vector<std::size_t>& picked) {
  std::uint64_t& examined = stats.slots_examined;

  // Greedy phase: start head jobs while they fit. At a frontier the head
  // is the one the settling select left blocked, and it still is.
  std::size_t head = queue_.next_live(0, examined);
  while (head != QueueIndex::npos && queue_.slot(head).nodes <= free_nodes) {
    free_nodes -= queue_.slot(head).nodes;
    picked.push_back(head);
    head = queue_.next_live(head + 1, examined);
  }
  if (head == QueueIndex::npos) return {free_nodes, std::nullopt, false};
  // Without a job behind the blocked head that fits the free nodes there
  // is nothing to backfill, and the reservation would go unused. Behind
  // the frontier every job was passed over.
  std::size_t p = queue_.find(std::max(head + 1, from), free_nodes,
                              QueueIndex::kAnyEstimate, 0, examined);
  if (p == QueueIndex::npos) {
    if (from == 0) return {free_nodes, std::nullopt, false};
    return {free_nodes, settled, true};  // the reservation stands
  }
  Shadow shadow = settled;
  bool settles = true;
  if (from == 0) {
    // Reservation for the head: walk the estimated ends of the running
    // jobs and this round's greedy starts until enough nodes accumulate.
    ++stats.shadows;
    start_ends_.clear();
    for (std::size_t g : picked) {
      const QueueIndex::Slot& j = queue_.slot(g);
      insert_sorted(start_ends_, End{now + j.estimate, j.nodes});
    }
    const int head_nodes = queue_.slot(head).nodes;
    const std::optional<Shadow> ordered =
        ordered_shadow(now, free_nodes, head_nodes);
#ifndef NDEBUG
    if (ordered) {  // wherever the walk answers, the sort agrees
      const Shadow sorted =
          sorted_shadow(now, free_nodes, head_nodes, running, picked);
      assert(*ordered == sorted);
    }
#endif
    if (ordered) {
      shadow = *ordered;
    } else {
      ++stats.tie_sorts;
      settles = false;
      shadow = sorted_shadow(now, free_nodes, head_nodes, running, picked);
    }
  }
  // Whatever the head does not need may be held past the shadow time by
  // backfilled jobs.
  const Duration window = shadow.time - now;

  // Backfill phase: any later job may start now if it fits and does not
  // disturb the head's reservation. Free and extra nodes only fall, so
  // each search resumes behind the previous start.
  for (p = queue_.find(p, free_nodes, window, shadow.extra, examined);
       p != QueueIndex::npos;
       p = queue_.find(p + 1, free_nodes, window, shadow.extra, examined)) {
    const QueueIndex::Slot& j = queue_.slot(p);
    free_nodes -= j.nodes;
    if (j.estimate > window) {
      shadow.extra -= j.nodes;  // held past the shadow
    } else if (j.estimate == window) {
      // It joins the jobs ending at the shadow time, and the extra nodes
      // the next walk finds there could depend on their order.
      settles = false;
    }
    picked.push_back(p);
    if (free_nodes == 0) break;
  }
  return {free_nodes, shadow, settles};
}

void EasyBackfillDispatch::select(
    Time now, int free_nodes, [[maybe_unused]] const std::vector<JobId>& order,
    const std::vector<RunningJob>& running, std::vector<JobId>& starts) {
  starts.clear();
  queue_.begin_round();
  assert(queue_.lists(order));
  assert(running_ends_.size() == running.size());
  ++stats_.selects;
  // Resume at the frontier while its shadow time lies ahead.
  std::size_t from = queue_.frontier(free_nodes);
  if (from != 0 && settled_.time <= now) from = 0;
  if (from != 0) ++stats_.settled;
  picked_.clear();
  const Outcome out =
      search(now, free_nodes, from, settled_, running, stats_, picked_);
#ifndef NDEBUG
  if (from != 0) {  // the full search, with a fresh shadow, agrees
    SelectStats unused;
    std::vector<std::size_t> full;
    const Outcome fresh =
        search(now, free_nodes, 0, settled_, running, unused, full);
    assert(full == picked_);
    assert(!fresh.shadow || fresh.shadow == out.shadow);
  }
#endif
  for (std::size_t p : picked_) starts.push_back(queue_.take(p));
  if (out.settles) {
    settled_ = *out.shadow;
    queue_.settle(out.free_nodes);
  } else {
    queue_.unsettle();
  }
}

}  // namespace jsched::core
