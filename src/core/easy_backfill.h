// EASY backfilling (Lifka's original ANL/IBM SP method) — paper §5.2.
//
// "While EASY backfill will not postpone the *projected* execution of the
//  next job in the list, it may increase the completion time of jobs
//  further down the list."
//
// Only the head of the queue receives a guarantee: from the estimated
// completion times of running jobs, compute the *shadow time* at which the
// head will be able to start and the number of *extra* nodes left over at
// that moment. Any other queued job may start now if it fits the currently
// free nodes and either finishes (by its estimate) before the shadow time
// or uses only extra nodes.
//
// Projections use user estimates, so an early-finishing job can make a
// backfill decision delay the head relative to what an exact-knowledge
// scheduler would have done — exactly the effect the paper discusses and
// Table 6 measures.
//
// The wait queue is searched through a QueueIndex: backfilling visits only
// the jobs that may start, and the reservation is computed only when some
// job behind the blocked head fits the free nodes.
#pragma once

#include "core/dispatch.h"

namespace jsched::core {

class EasyBackfillDispatch final : public Dispatcher {
 public:
  std::string name() const override { return "EASY"; }
  void reset(const sim::Machine&, const JobStore& store) override;
  void on_enqueue(JobId id, Time) override {
    queue_.push_back(store_->get(id));
  }
  void on_start(JobId id, Time) override { queue_.erase(id); }
  void on_reorder(const std::vector<JobId>& order, Time) override {
    queue_.assign(order, *store_);
  }
  void select(Time now, int free_nodes, const std::vector<JobId>& order,
              const std::vector<RunningJob>& running,
              std::vector<JobId>& starts) override;

  const SelectStats& select_stats() const noexcept { return stats_; }

 private:
  const JobStore* store_ = nullptr;
  QueueIndex queue_;
  SelectStats stats_;
  // Scratch for the shadow-time computation (running jobs + greedy starts,
  // sorted by estimated end); kept as a member so the per-event hot path
  // reuses its capacity instead of allocating.
  std::vector<RunningJob> active_;
};

}  // namespace jsched::core
