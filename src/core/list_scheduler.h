// Composition of an OrderingPolicy with a Dispatcher into an on-line
// scheduler — the paper's architecture in one class: every evaluated
// algorithm is "a job order" (FCFS / SMART / PSRS) "plus a greedy list
// dispatch" (head-only, Garey&Graham first fit, EASY or conservative
// backfilling). It owns everything the pair shares: the job store and the
// running set. PhasedScheduler (§7) is this class with a second pair
// swapped in at phase boundaries.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/dispatch.h"
#include "core/job_store.h"
#include "core/ordering.h"
#include "sim/scheduler.h"

namespace jsched::core {

class ListScheduler : public sim::Scheduler {
 public:
  ListScheduler(std::unique_ptr<OrderingPolicy> ordering,
                std::unique_ptr<Dispatcher> dispatcher);

  std::string name() const override;
  void reset(const sim::Machine& machine) override;
  void on_submit(const Submission& job, Time now) override;
  void on_complete(JobId id, Time now) override;
  void on_capacity_change(Time now, int available_nodes) override;
  void select_starts(Time now, int free_nodes,
                     std::vector<JobId>& starts) override;
  Time next_wakeup(Time now) const override;
  std::size_t queue_length() const override;

  /// Introspection for tests.
  const OrderingPolicy& ordering() const { return *ordering_; }
  const Dispatcher& dispatcher() const { return *dispatcher_; }
  const std::vector<RunningJob>& running() const { return running_; }

 protected:
  /// "ORDER+DISPATCH", or just "ORDER" for the plain list schedule.
  static std::string pair_name(const OrderingPolicy& ordering,
                               const Dispatcher& dispatcher);

  const JobStore& store() const { return store_; }

  /// Exchange the active (ordering, dispatcher) pair with the given one.
  /// The caller hands the wait queue to the incoming ordering first and
  /// has the incoming dispatcher adopt the machine.
  void swap_pair(std::unique_ptr<OrderingPolicy>& ordering,
                 std::unique_ptr<Dispatcher>& dispatcher) noexcept;

 private:
  std::unique_ptr<OrderingPolicy> ordering_;
  std::unique_ptr<Dispatcher> dispatcher_;
  JobStore store_;
  std::vector<RunningJob> running_;
};

}  // namespace jsched::core
