#include "core/phased_scheduler.h"

#include <algorithm>
#include <stdexcept>

#include "core/easy_backfill.h"
#include "core/smart.h"

namespace jsched::core {

bool PhaseWindow::contains(Time t) const noexcept {
  const long long day_index = t / kDay;
  if (weekdays_only && (day_index % 7) >= 5) return false;  // day 0 = Monday
  const Duration second = t % kDay;
  if (start_second <= end_second) {
    return second >= start_second && second < end_second;
  }
  return second >= start_second || second < end_second;
}

Time PhaseWindow::next_boundary(Time t) const noexcept {
  // contains() changes only at a midnight (the weekday rule), at
  // start_second or at end_second, so the boundary is the first of these
  // instants after t whose membership differs from t's. The pattern
  // repeats weekly: eight days of candidates from t's midnight cover
  // (t, t + 1 week], and a window with no boundary there has none at all.
  const bool here = contains(t);
  const Time midnight = t / kDay * kDay;
  for (int d = 0; d < 8; ++d) {
    const Time day = midnight + d * kDay;
    Time first = kTimeInfinity;
    for (const Duration offset : {Duration{0}, start_second, end_second}) {
      const Time c = day + offset;
      if (c > t && c < first && contains(c) != here) first = c;
    }
    if (first != kTimeInfinity) return first;
  }
  return kTimeInfinity;
}

PhasedScheduler::PhasedScheduler(PhaseWindow window,
                                 std::unique_ptr<OrderingPolicy> day_order,
                                 std::unique_ptr<Dispatcher> day_dispatch,
                                 std::unique_ptr<OrderingPolicy> night_order,
                                 std::unique_ptr<Dispatcher> night_dispatch)
    : ListScheduler(std::move(day_order), std::move(day_dispatch)),
      window_(window),
      idle_order_(std::move(night_order)),
      idle_dispatch_(std::move(night_dispatch)) {
  if (!idle_order_ || !idle_dispatch_) {
    throw std::invalid_argument("PhasedScheduler: null component");
  }
}

std::string PhasedScheduler::name() const {
  const std::string active = ListScheduler::name();
  const std::string idle = pair_name(*idle_order_, *idle_dispatch_);
  return "day[" + (day_active_ ? active : idle) + "]/night[" +
         (day_active_ ? idle : active) + "]";
}

void PhasedScheduler::reset(const sim::Machine& machine) {
  // A previous run may have ended in the other phase: make the pair of
  // the phase at t=0 the active one before resetting both.
  if (window_.contains(0) != day_active_) {
    swap_pair(idle_order_, idle_dispatch_);
    day_active_ = !day_active_;
  }
  ListScheduler::reset(machine);
  idle_order_->reset(machine, store());
  idle_dispatch_->reset(machine, store());
  flips_ = 0;
  last_sync_ = -1;
  machine_ = machine;
  capacity_ = machine.nodes;
}

void PhasedScheduler::sync_phase(Time now) {
  if (now == last_sync_) return;
  last_sync_ = now;
  if (window_.contains(now) == day_active_) return;
  ++flips_;
  day_active_ = !day_active_;

  // Hand the queue over in submission order (ids are submission-ordered),
  // letting the incoming policy impose its own priorities, and have the
  // incoming dispatcher adopt the machine before it becomes active.
  std::vector<JobId> queued = ordering().order();
  std::sort(queued.begin(), queued.end());
  for (JobId id : queued) idle_order_->on_submit(id, now);
  idle_dispatch_->adopt(now, idle_order_->order(), running());
  swap_pair(idle_order_, idle_dispatch_);
  // The outgoing policy sits idle until the next flip hands it the queue
  // again, so it must not keep the jobs it held.
  idle_order_->reset(machine_, store());
  if (capacity_ != machine_.nodes) {
    // adopt() rebuilt the incoming dispatcher's state at full capacity;
    // replay the outage so its plan respects the surviving nodes.
    ListScheduler::on_capacity_change(now, capacity_);
  }
}

void PhasedScheduler::on_submit(const Submission& job, Time now) {
  sync_phase(now);
  ListScheduler::on_submit(job, now);
}

void PhasedScheduler::on_complete(JobId id, Time now) {
  sync_phase(now);
  ListScheduler::on_complete(id, now);
}

void PhasedScheduler::on_capacity_change(Time now, int available_nodes) {
  sync_phase(now);
  capacity_ = available_nodes;
  ListScheduler::on_capacity_change(now, available_nodes);
}

void PhasedScheduler::select_starts(Time now, int free_nodes,
                                    std::vector<JobId>& starts) {
  sync_phase(now);
  ListScheduler::select_starts(now, free_nodes, starts);
}

Time PhasedScheduler::next_wakeup(Time now) const {
  // Wake for the dispatcher's reservations and for the next phase flip
  // (only needed while there is anything to schedule).
  Time wake = ListScheduler::next_wakeup(now);
  if (!running().empty() || queue_length() > 0) {
    wake = std::min(wake, window_.next_boundary(std::max<Time>(now, 0)));
  }
  return wake;
}

std::unique_ptr<sim::Scheduler> make_institution_b_combined() {
  SmartParams smart;
  smart.variant = SmartVariant::kFfia;
  smart.weight = WeightKind::kUnit;
  return std::make_unique<PhasedScheduler>(
      PhaseWindow{7 * kHour, 20 * kHour, true},
      std::make_unique<SmartOrder>(smart),
      std::make_unique<EasyBackfillDispatch>(),
      std::make_unique<FcfsOrder>(), std::make_unique<FirstFitDispatch>());
}

}  // namespace jsched::core
