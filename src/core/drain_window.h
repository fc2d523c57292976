// Recurring machine-drain windows (paper Example 4).
//
// "Every weekday at 10am the entire machine must be available to a
//  theoretical chemistry class for 1 hour. [...] as users are not able to
//  provide accurate execution time estimates for their jobs no scheduling
//  algorithm can generate good schedules."
//
// This decorator wraps any dispatcher that plans nothing beyond the
// current select() (head-only list, G&G first fit, EASY: the last two
// drop a job from their queue index only when on_start reports it
// started) and vetoes starts that would — by the user's estimate —
// still be running when the next drain window opens, and starts nothing
// while a window is open. Because the veto works on estimates, a job that
// overruns its estimate still violates the window: the decorator enforces
// best effort, and metrics::idle_node_seconds measures what the class
// actually got. Exactly the dependence between policy rules and estimate
// quality that Example 4 is about.
//
// Not composable with ConservativeBackfillDispatch (its reservations
// assume every job it selects actually starts).
#pragma once

#include <memory>

#include "core/dispatch.h"
#include "core/phased_scheduler.h"  // PhaseWindow

namespace jsched::core {

class DrainWindowDispatch final : public Dispatcher {
 public:
  DrainWindowDispatch(std::unique_ptr<Dispatcher> inner, PhaseWindow window);

  std::string name() const override;
  void reset(const sim::Machine& machine, const JobStore& store) override;
  void on_enqueue(JobId id, Time now) override { inner_->on_enqueue(id, now); }
  void on_start(JobId id, Time now) override { inner_->on_start(id, now); }
  void on_complete(JobId id, Time now, Time estimated_end,
                   const std::vector<JobId>& order) override {
    inner_->on_complete(id, now, estimated_end, order);
  }
  void on_reorder(const std::vector<JobId>& order, Time now) override {
    inner_->on_reorder(order, now);
  }
  // The default adopt() would only replay on_reorder, losing the running
  // set a stateful inner needs to rebuild its profile; forward it whole.
  void adopt(Time now, const std::vector<JobId>& order,
             const std::vector<RunningJob>& running) override {
    inner_->adopt(now, order, running);
  }
  void select(Time now, int free_nodes, const std::vector<JobId>& order,
              const std::vector<RunningJob>& running,
              std::vector<JobId>& starts) override;
  Time next_wakeup(Time now) const override;

  /// Starts vetoed so far (introspection for tests).
  std::size_t vetoed() const noexcept { return vetoed_; }

 private:
  std::unique_ptr<Dispatcher> inner_;
  PhaseWindow window_;
  const JobStore* store_ = nullptr;
  bool queue_pending_ = false;
  std::size_t vetoed_ = 0;
};

}  // namespace jsched::core
