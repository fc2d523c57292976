#include "core/conservative_backfill.h"

#include <cassert>
#include <limits>
#include <stdexcept>

namespace jsched::core {

namespace {

/// Merged breakpoints a single screening query may walk before giving up
/// and handing the rest of the window to scratch re-placement (a cutoff
/// at any position is exact — see replan_incremental). Most queries walk
/// a few hundred breakpoints; the long ones are walks from `now` for
/// window entrants planned deep behind a backlog. On the 4x-load
/// FCFS+CONS serve workload (20k jobs, queue peaking near 10k) a budget
/// of 2048 ended ~1.3k screens per run, each then paying tree-descent
/// re-placements for the rest of the window; at 8192 none ended.
constexpr std::size_t kScreenStepBudget = 8192;

Time span_end(Time start, Duration duration) {
  return start > kTimeInfinity - duration ? kTimeInfinity : start + duration;
}

}  // namespace

ConservativeBackfillDispatch::ConservativeBackfillDispatch(
    const ConservativeParams& params)
    : params_(params) {
  if (params_.reservation_depth < 1) {
    throw std::invalid_argument("ConservativeBackfill: reservation_depth < 1");
  }
  if (params_.compression_queue_limit < 1) {
    throw std::invalid_argument(
        "ConservativeBackfill: compression_queue_limit < 1 — a zero limit "
        "would gate full compression to never run; use full_compression = "
        "false to disable it");
  }
  // replan_prefix is unsigned; a negative value passed by a caller wraps to
  // the top of the size_t range. No real prefix comes close (use
  // full_compression to replan everything), so reject the wrapped half.
  if (params_.replan_prefix >= std::numeric_limits<std::size_t>::max() / 2) {
    throw std::invalid_argument(
        "ConservativeBackfill: replan_prefix is implausibly large — was a "
        "negative value converted to std::size_t?");
  }
}

void ConservativeBackfillDispatch::reset(const sim::Machine& machine,
                                         const JobStore& store) {
  store_ = &store;
  profile_ = sim::Profile(machine.nodes);
  down_nodes_ = 0;
  reserved_.clear();
  wakeups_.clear();
  compression_debt_ = false;
  stats_ = {};
  cursor_ = {};  // anchored in the profile just replaced
  unreserved_.clear();
  unreserved_stale_ = false;
  growth_.clear();
  epoch_ = 0;
  screen_all_ = true;
}

void ConservativeBackfillDispatch::reserve(JobId id, Time from) {
  const Job& j = store_->get(id);
  const Time start = profile_.earliest_fit(from, j.estimate, j.nodes);
  profile_.allocate(start, j.estimate, j.nodes);
  set_reservation(id, start);
}

void ConservativeBackfillDispatch::set_reservation(JobId id, Time start) {
  const auto [it, fresh] = reserved_.try_emplace(id, Reservation{start});
  if (!fresh) {
    wakeups_.erase({it->second.start, id});
    it->second.start = start;
  }
  wakeups_.emplace(start, id);
}

void ConservativeBackfillDispatch::on_enqueue(JobId id, Time now) {
  if (!reservable(id)) return;  // parked until capacity recovers
  if (reserved_.size() < params_.reservation_depth) {
    reserve(id, now);
  } else if (!unreserved_stale_) {
    unreserved_.push_back(id);  // the ordering appended it to the queue
  }
}

void ConservativeBackfillDispatch::on_start(JobId id, Time now) {
  // select() already removed the reservation entry; the job's allocation
  // [now, now+estimate) stays in the profile and now represents the
  // running job (on_complete returns the unused tail when the job beats
  // its estimate).
  assert(!reserved_.contains(id));
  (void)id;
  (void)now;
}

void ConservativeBackfillDispatch::on_complete(
    JobId id, Time now, Time estimated_end, const std::vector<JobId>& order) {
  ++stats_.completions;
  if (!compression_debt_) ++stats_.replans_elided;
  if (now < estimated_end) {
    const Job& j = store_->get(id);
    profile_.release(now, estimated_end - now, j.nodes);
    growth_.push_back({now, estimated_end, j.nodes});
    compression_debt_ = true;
  }
  // Compression only moves reservations when capacity was freed since the
  // plan was last consistent. An on-time completion (now == estimated_end)
  // returns zero capacity, so the replan would re-place every reservation
  // exactly where it already is — skip it. compression_debt_ tracks
  // whether any capacity has been freed since the last replan that covered
  // the whole reserved set.
  //
  // A *partial* replan (replan_prefix smaller than the reserved set)
  // deliberately never clears the debt: reservations beyond the prefix
  // were planned against the pre-completion profile, and as the queue
  // drains they surface into the prefix window — each later completion
  // must keep re-screening the window so those stale reservations are
  // refreshed when they arrive (PrefixReplanOnlyTouchesTheFront pins the
  // refresh, PartialReplanKeepsDebt pins the re-run). The incremental
  // screen makes the repeated runs cheap: when nothing in the window can
  // move, the replan is read-only and touches no profile state.
  if (compression_debt_) {
    if (reserved_.empty()) {
      compression_debt_ = false;  // nothing to compress: trivially covered
    } else if (params_.full_compression &&
               reserved_.size() <= params_.compression_queue_limit) {
      replan(order, now, reserved_.size());
    } else if (params_.replan_prefix > 0) {
      replan(order, now, params_.replan_prefix);
    }
  }
  profile_.compact(now);
}

void ConservativeBackfillDispatch::replan(const std::vector<JobId>& order,
                                          Time now, std::size_t limit) {
  ++stats_.replans;
  // Re-plan the first `limit` reserved jobs (queue order) from `now`.
  // Each job is placed before any job behind it, so compression never
  // lets a later job displace an earlier one — the conservative guarantee
  // survives it.
  const bool full_coverage = limit >= reserved_.size();

  // A member stamped by the previous replan holds its certificate; every
  // member is stamped by this one.
  planned_.clear();
  for (JobId id : order) {
    if (planned_.size() >= limit) break;
    auto it = reserved_.find(id);
    if (it == reserved_.end()) continue;  // dormant (beyond depth)
    Reservation& r = it->second;
    const Job& j = store_->get(id);
    planned_.push_back({id, r.start, j.estimate, j.nodes,
                        !screen_all_ && r.screened == epoch_, false});
    r.screened = epoch_ + 1;
  }
  ++epoch_;
  if (!planned_.empty()) {
    if (params_.scratch_replan) {
      replace_from(0, now);  // reference semantics: lift and re-place all
    } else {
      replan_incremental(now);
    }
  }
  // The plan is a compressed fixed point again: every window member now
  // holds a standing certificate "no earlier fit exists", valid until
  // capacity grows across its width (growth_ collects the candidate
  // spans). Their stamps equal epoch_, so jobs surfacing into the window
  // later — which carry no certificate — are recognized and screened in
  // full.
  growth_.clear();
  screen_all_ = false;
  if (full_coverage) compression_debt_ = false;
}

void ConservativeBackfillDispatch::replan_incremental(Time now) {
  // The scratch procedure lifts every planned reservation, then re-places
  // them in queue order. This path resolves the same positions in the
  // same order without the lift: the overlay carries the allocations of
  // the window positions not yet resolved (and not detached, see below),
  // so before resolving position k, `profile_ + overlay_` is bit-for-bit
  // the profile the scratch procedure would query to place it. A job whose
  // fit equals its reservation stays put — its allocation is already in
  // the profile, so retiring it from the overlay places it. A job that
  // moves is moved in place, keeping the profile a valid allocation after
  // every mutation (see place()).
  //
  // Window entrants are capacity growth too: when the certificates were
  // proven, an entrant's reservation was a dormant blocker outside the
  // window; now the overlay lifts it, so a certified predecessor may
  // legitimately move into its slot. Fold their spans into the growth set.
  // (Entrants created since the last replan never blocked anything —
  // counting them is merely conservative.)
  spans_.clear();
  spans_.reserve(planned_.size());
  for (const PlannedJob& p : planned_) {
    spans_.push_back({p.start, span_end(p.start, p.estimate), p.nodes});
    if (!screen_all_ && !p.screened) growth_.push_back(spans_.back());
  }
  overlay_.build(spans_, &span_index_);
  growth_overlay_.build(growth_);
  const std::uint64_t restarts_before = cursor_.restarts();
  for (std::size_t k = 0; k < planned_.size(); ++k) {
    const PlannedJob& p = planned_[k];
    Time fit;
    bool certified = false;
    if (p.start < now) {
      // Overdue reservation whose wakeup has not been delivered yet: the
      // scratch procedure re-places it from `now`. Rare — fall back.
      fit = kTimeInfinity;
    } else if (p.start == now || p.screened) {
      // Certificate. The previous replan proved no fit before this job's
      // start; since then the view it is resolved against differs from
      // the proven one only by shrinks (which cannot create fits) and by
      // the growth set: early releases, normalization releases, window
      // entrants and the slots that earlier positions of this replan
      // vacated. Any earlier fit must therefore contain an instant where
      // growth lifted capacity across the job's width, and the
      // growth-confined query examines only the runs through such
      // instants — never the stretch from `now`. (A start at `now` needs
      // no proof.)
      fit = profile_.earliest_fit_in_growth(overlay_, growth_overlay_, now,
                                            p.start, p.estimate, p.nodes,
                                            kScreenStepBudget);
      certified = fit == p.start;
      if (certified && p.detached) {
        // No earlier fit, but an earlier mover took part of the old slot:
        // the fit lies at or after it.
        fit = profile_.earliest_fit_with(overlay_, cursor_, p.start,
                                         p.estimate, p.nodes, kTimeInfinity,
                                         kScreenStepBudget);
      }
    } else {
      // No certificate (new window member, or a wholesale rebuild since
      // the last replan): walk from `now`. An intact job's own slot is a
      // known fit in the merged view and bounds the walk; a detached
      // job's is not.
      fit = profile_.earliest_fit_with(
          overlay_, cursor_, now, p.estimate, p.nodes,
          p.detached ? kTimeInfinity : p.start, kScreenStepBudget);
    }
    if (fit == kTimeInfinity) {
      // Overdue or out of budget. Positions 0..k-1 are resolved and
      // placed exactly, so scratch re-placement of the rest reproduces
      // the scratch schedule.
      ++stats_.fallbacks;
      replace_from(k, now);
      break;
    }
    if (fit == p.start && !p.detached) {
      overlay_.retire(span_index_[k], p.nodes);
      ++stats_.reused;
      if (certified && p.start != now) ++stats_.certified;
    } else {
      place(k, fit);
    }
  }
  stats_.cursor_restarts += cursor_.restarts() - restarts_before;
}

void ConservativeBackfillDispatch::place(std::size_t k, Time start) {
  PlannedJob& p = planned_[k];
  const Time old_end = span_end(p.start, p.estimate);
  const Time end = span_end(start, p.estimate);
  // Lift the old slot (the combined view is unchanged: the overlay held
  // it). Later positions were proven against a plan with this job there,
  // so once it leaves, the slot is growth for their certificates.
  if (!p.detached) {
    profile_.release(p.start, p.estimate, p.nodes);
    overlay_.retire(span_index_[k], p.nodes);
  }
  if (start != p.start) growth_overlay_.add(p.start, old_end, p.nodes);
  // The new span fits the combined view, but later positions still hold
  // their old slots in the profile. Detach every one the span overlaps —
  // release it from the profile and retire it from the overlay, again
  // leaving the combined view unchanged — so the overlay is zero over the
  // span and the allocation below cannot oversubscribe the profile. A
  // detached job is re-placed when its own position is resolved.
  for (std::size_t j = k + 1; j < planned_.size(); ++j) {
    PlannedJob& q = planned_[j];
    if (q.detached) continue;
    const Time q_end = span_end(q.start, q.estimate);
    if (q.start >= end || start >= q_end) continue;
    profile_.release(q.start, q.estimate, q.nodes);
    overlay_.retire(span_index_[j], q.nodes);
    q.detached = true;
    ++stats_.detached;
  }
  profile_.allocate(start, p.estimate, p.nodes);
  ++stats_.replaced;
  if (start != p.start) {
    ++stats_.moved;
    set_reservation(p.id, start);
  }
}

void ConservativeBackfillDispatch::replace_from(std::size_t from, Time now) {
  {
    // A burst of releases with no interleaved queries: defer the
    // profile's segment-tree maintenance to the first re-placement query.
    sim::Profile::BulkUpdate bulk(profile_);
    for (std::size_t k = from; k < planned_.size(); ++k) {
      if (planned_[k].detached) continue;  // already out of the profile
      profile_.release(planned_[k].start, planned_[k].estimate,
                       planned_[k].nodes);
    }
  }
  for (std::size_t k = from; k < planned_.size(); ++k) {
    const PlannedJob& p = planned_[k];
    const Time start = profile_.earliest_fit(now, p.estimate, p.nodes);
    profile_.allocate(start, p.estimate, p.nodes);
    ++stats_.replaced;
    if (start != p.start) {
      ++stats_.moved;
      set_reservation(p.id, start);
    }
  }
}

void ConservativeBackfillDispatch::on_reorder(const std::vector<JobId>& order,
                                              Time now) {
  // A new priority order invalidates every reservation: lift all of them
  // and re-place the same reserved set in the new order.
  {
    sim::Profile::BulkUpdate bulk(profile_);
    lift_reservations();
  }
  reserve_afresh(order, now, /*keep_reserved_set=*/true);
}

void ConservativeBackfillDispatch::on_capacity_change(
    Time now, int available_nodes, const std::vector<JobId>& order,
    const std::vector<RunningJob>& running) {
  (void)running;
  // Every reservation assumed the old capacity: lift them all, adjust the
  // open-ended outage allocation to the new down count, and re-place in
  // queue order. Shrinking is always legal — after the simulator's kills,
  // running jobs use at most `available_nodes`, so with reservations
  // lifted the profile has at least the extra outage free at every
  // instant. Growing releases the recovered slice of the outage.
  const int down = profile_.total_nodes() - available_nodes;
  {
    sim::Profile::BulkUpdate bulk(profile_);
    lift_reservations();
    if (down > down_nodes_) {
      profile_.allocate(now, kTimeInfinity, down - down_nodes_);
    } else if (down < down_nodes_) {
      profile_.release(now, kTimeInfinity, down_nodes_ - down);
    }
  }
  down_nodes_ = down;
  reserve_afresh(order, now, /*keep_reserved_set=*/false);
}

void ConservativeBackfillDispatch::adopt(
    Time now, const std::vector<JobId>& order,
    const std::vector<RunningJob>& running) {
  // Rebuild the profile from scratch: running jobs occupy capacity until
  // their estimated ends, then queued jobs get fresh reservations in the
  // adopted order. The rebuild assumes full capacity; when nodes are down
  // the owner (PhasedScheduler) re-delivers on_capacity_change right after
  // adopting, restoring the outage allocation.
  profile_ = sim::Profile(profile_.total_nodes());
  down_nodes_ = 0;
  {
    sim::Profile::BulkUpdate bulk(profile_);
    for (const RunningJob& r : running) {
      if (r.estimated_end > now) {
        profile_.allocate(now, r.estimated_end - now, r.nodes);
      }
    }
  }
  reserve_afresh(order, now, /*keep_reserved_set=*/false);
}

void ConservativeBackfillDispatch::lift_reservations() {
  for (const auto& [id, r] : reserved_) {
    const Job& j = store_->get(id);
    profile_.release(r.start, j.estimate, j.nodes);
  }
}

void ConservativeBackfillDispatch::reserve_afresh(
    const std::vector<JobId>& order, Time now, bool keep_reserved_set) {
  // The profile holds no reservation now: re-reserve from `now` in queue
  // order, either the jobs reserved before or the first reservation_depth
  // reservable ones.
  wakeups_.clear();
  if (!keep_reserved_set) reserved_.clear();
  const std::size_t count =
      keep_reserved_set ? reserved_.size() : params_.reservation_depth;
  std::size_t planned = 0;
  for (JobId id : order) {
    if (planned >= count) break;
    if (keep_reserved_set ? !reserved_.contains(id) : !reservable(id)) {
      continue;  // beyond the depth, or parked until capacity recovers
    }
    reserve(id, now);
    ++planned;
  }
  // Every reservation was just placed from `now` in queue order: the plan
  // is fully compressed, so the next on-time completion has nothing to
  // replan.
  compression_debt_ = false;
  growth_.clear();
  screen_all_ = true;  // placements outside replan(): no certificates
  mark_unreserved_stale();  // another order, reserved set or parked set
}

void ConservativeBackfillDispatch::mark_unreserved_stale() {
  unreserved_.clear();
  unreserved_stale_ = true;
}

void ConservativeBackfillDispatch::promote(const std::vector<JobId>& order,
                                           Time now) {
  if (reserved_.size() >= params_.reservation_depth) return;
  if (unreserved_stale_) {
    // Every queued job holds a reservation when the reserved set is as
    // large as the queue; otherwise read the queue once.
    if (reserved_.size() < order.size()) {
      for (JobId id : order) {
        if (!reserved_.contains(id) && reservable(id)) {
          unreserved_.push_back(id);
        }
      }
      stats_.promote_examined += order.size();
    }
    unreserved_stale_ = false;
  }
  while (!unreserved_.empty() &&
         reserved_.size() < params_.reservation_depth) {
    reserve(unreserved_.front(), now);
    unreserved_.pop_front();
    ++stats_.promoted;
    ++stats_.promote_examined;
    // The promoted job may rank anywhere in the current order (e.g. a
    // SMART arrival folded in by a reorder before it was ever enqueued
    // here), but earliest-fit placed it behind every existing
    // reservation — the plan is no longer the fixed point of a replay in
    // queue order, so compression has real work again.
    compression_debt_ = true;
  }
}

void ConservativeBackfillDispatch::select(Time now, int free_nodes,
                                          const std::vector<JobId>& order,
                                          const std::vector<RunningJob>&,
                                          std::vector<JobId>& starts) {
  promote(order, now);

  starts.clear();
  [[maybe_unused]] int budget = free_nodes;

  // Start every reservation that is due, in (start, id) order. Capacity is
  // guaranteed by the profile, so they all fit together.
  while (!wakeups_.empty() && wakeups_.begin()->first <= now) {
    const auto [t, id] = *wakeups_.begin();
    wakeups_.erase(wakeups_.begin());
    reserved_.erase(id);
    const Job& j = store_->get(id);
    assert(j.nodes <= budget);
    budget -= j.nodes;
    // Normalize the allocation when the reservation was planned for an
    // earlier instant that had no event of its own.
    if (t < now) {
      profile_.release(t, j.estimate, j.nodes);
      profile_.allocate(now, j.estimate, j.nodes);
      growth_.push_back({t, span_end(t, j.estimate), j.nodes});
      compression_debt_ = true;  // the shifted tail perturbed the plan
    }
    starts.push_back(id);
  }

  if (!starts.empty()) profile_.compact(now);
}

Time ConservativeBackfillDispatch::next_wakeup(Time) const {
  return wakeups_.empty() ? kTimeInfinity : wakeups_.begin()->first;
}

Time ConservativeBackfillDispatch::reservation_of(JobId id) const {
  auto it = reserved_.find(id);
  return it == reserved_.end() ? kTimeInfinity : it->second.start;
}

}  // namespace jsched::core
