// Combining the selected algorithms (paper §7).
//
// Example 5's administrator picks *different* winners per objective —
// "the classical list scheduling algorithm for the weighted case [and]
// either SMART or PSRS together with some form of backfilling" for the
// unweighted case — and notes that "she must evaluate the effect of
// combining the selected algorithms". This scheduler is that combination:
// a ListScheduler (one job store, one running set, one wait queue) that
// holds a second (ordering, dispatcher) pair and swaps it in between the
// policy's day and night phases.
//
// On a phase flip the queue is re-ordered under the incoming policy, the
// incoming dispatcher adopts the machine state (running jobs and the new
// order) and the outgoing policy is reset, so the idle pair's ordering
// holds no jobs; phase boundaries are surfaced through next_wakeup so
// flips happen on time even in event gaps.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/dispatch.h"
#include "core/list_scheduler.h"
#include "core/ordering.h"
#include "util/time.h"

namespace jsched::core {

/// A recurring daily phase window (seconds of day, [start, end) with
/// wrap-around; optionally weekdays only, matching policy rules 5/6).
struct PhaseWindow {
  Duration start_second = 7 * kHour;
  Duration end_second = 20 * kHour;
  bool weekdays_only = true;

  /// True when t falls inside the window (day 0 is a Monday).
  bool contains(Time t) const noexcept;

  /// Earliest boundary strictly after t (entering or leaving the window),
  /// exact for windows and gaps of any length; kTimeInfinity when
  /// contains() never changes.
  Time next_boundary(Time t) const noexcept;
};

class PhasedScheduler final : public ListScheduler {
 public:
  /// `day_*` are active while `window.contains(now)`, `night_*` otherwise.
  PhasedScheduler(PhaseWindow window,
                  std::unique_ptr<OrderingPolicy> day_order,
                  std::unique_ptr<Dispatcher> day_dispatch,
                  std::unique_ptr<OrderingPolicy> night_order,
                  std::unique_ptr<Dispatcher> night_dispatch);

  std::string name() const override;
  void reset(const sim::Machine& machine) override;
  void on_submit(const Submission& job, Time now) override;
  void on_complete(JobId id, Time now) override;
  void on_capacity_change(Time now, int available_nodes) override;
  void select_starts(Time now, int free_nodes,
                     std::vector<JobId>& starts) override;
  Time next_wakeup(Time now) const override;

  /// Which phase is active (introspection for tests).
  bool in_day_phase() const noexcept { return day_active_; }
  std::size_t phase_flips() const noexcept { return flips_; }

 private:
  void sync_phase(Time now);

  PhaseWindow window_;
  /// The inactive phase's pair; the active one lives in ListScheduler.
  std::unique_ptr<OrderingPolicy> idle_order_;
  std::unique_ptr<Dispatcher> idle_dispatch_;
  bool day_active_ = true;
  std::size_t flips_ = 0;
  Time last_sync_ = -1;
  /// The machine of the last reset(), which a flip resets the outgoing
  /// ordering against, and the last advertised capacity (fault injection).
  /// adopt() rebuilds the incoming dispatcher at full capacity, so a phase
  /// flip during an outage re-delivers on_capacity_change right after
  /// adopting.
  sim::Machine machine_;
  int capacity_ = 0;
};

/// The paper's §7 outcome as a ready-made configuration: SMART-FFIA+EASY
/// (unweighted winner) on weekday daytimes, Garey&Graham (weighted winner)
/// on nights and weekends.
std::unique_ptr<sim::Scheduler> make_institution_b_combined();

}  // namespace jsched::core
