#include "core/list_scheduler.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace jsched::core {

ListScheduler::ListScheduler(std::unique_ptr<OrderingPolicy> ordering,
                             std::unique_ptr<Dispatcher> dispatcher)
    : ordering_(std::move(ordering)), dispatcher_(std::move(dispatcher)) {
  if (!ordering_ || !dispatcher_) {
    throw std::invalid_argument("ListScheduler: null component");
  }
}

std::string ListScheduler::pair_name(const OrderingPolicy& ordering,
                                     const Dispatcher& dispatcher) {
  const std::string d = dispatcher.name();
  return d.empty() ? ordering.name() : ordering.name() + "+" + d;
}

std::string ListScheduler::name() const {
  return pair_name(*ordering_, *dispatcher_);
}

void ListScheduler::reset(const sim::Machine& machine) {
  store_.clear();
  running_.clear();
  ordering_->reset(machine, store_);
  dispatcher_->reset(machine, store_);
}

void ListScheduler::swap_pair(std::unique_ptr<OrderingPolicy>& ordering,
                              std::unique_ptr<Dispatcher>& dispatcher) noexcept {
  ordering_.swap(ordering);
  dispatcher_.swap(dispatcher);
}

void ListScheduler::on_submit(const Submission& job, Time now) {
  store_.put(job);
  const std::uint64_t before = ordering_->version();
  ordering_->on_submit(job.id, now);
  if (ordering_->version() != before) {
    // The new job is covered by the reorder notification.
    dispatcher_->on_reorder(ordering_->order(), now);
  } else {
    dispatcher_->on_enqueue(job.id, now);
  }
}

void ListScheduler::on_complete(JobId id, Time now) {
  auto it = std::find_if(running_.begin(), running_.end(),
                         [&](const RunningJob& r) { return r.id == id; });
  if (it == running_.end()) {
    throw std::logic_error("ListScheduler: completion for job not running");
  }
  const Time estimated_end = it->estimated_end;
  running_.erase(it);
  dispatcher_->on_complete(id, now, estimated_end, ordering_->order());
  // The job is finished: no component may consult it again (a fault
  // re-submission re-puts the id). Freeing the entry is what keeps the
  // store O(live jobs) in streaming runs.
  store_.erase(id);
}

void ListScheduler::on_capacity_change(Time now, int available_nodes) {
  dispatcher_->on_capacity_change(now, available_nodes, ordering_->order(),
                                  running_);
}

void ListScheduler::select_starts(Time now, int free_nodes,
                                  std::vector<JobId>& starts) {
  dispatcher_->select(now, free_nodes, ordering_->order(), running_, starts);
#ifndef NDEBUG
  const std::uint64_t version = ordering_->version();
#endif
  for (JobId id : starts) {
    ordering_->on_remove(id, now);
    dispatcher_->on_start(id, now);
    const Job& j = store_.get(id);
    running_.push_back({id, now, now + j.estimate, j.nodes});
  }
  // Only on_submit may reorder (OrderingPolicy's contract): a reorder
  // here would reach no dispatcher.
  assert(ordering_->version() == version);
}

Time ListScheduler::next_wakeup(Time now) const {
  return dispatcher_->next_wakeup(now);
}

std::size_t ListScheduler::queue_length() const {
  return ordering_->order().size();
}

}  // namespace jsched::core
