#include "core/ordering.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace jsched::core {

namespace {

/// Remove `id` from `queue`, returning the position it held. Throws
/// std::logic_error (prefixed with `who`) when the job is not queued.
std::size_t erase_queued(std::vector<JobId>& queue, JobId id, const char* who) {
  const auto it = std::find(queue.begin(), queue.end(), id);
  if (it == queue.end()) {
    throw std::logic_error(std::string(who) + ": removing job not in queue");
  }
  const auto i = static_cast<std::size_t>(it - queue.begin());
  queue.erase(it);
  return i;
}

}  // namespace

void FcfsOrder::reset(const sim::Machine&, const JobStore&) { queue_.clear(); }

void FcfsOrder::on_submit(JobId id, Time) { queue_.push_back(id); }

void FcfsOrder::on_remove(JobId id, Time) {
  erase_queued(queue_, id, "FcfsOrder");
}

void PriorityFcfsOrder::reset(const sim::Machine&, const JobStore& store) {
  store_ = &store;
  queue_.clear();
  version_ = 1;
}

void PriorityFcfsOrder::on_submit(JobId id, Time) {
  const std::int32_t cls = store_->get(id).priority_class;
  // Insert behind the last queued job with priority >= cls (stable FCFS
  // inside a class).
  std::size_t i = queue_.size();
  while (i > 0 && store_->get(queue_[i - 1]).priority_class < cls) --i;
  const bool mid_queue = i != queue_.size();
  queue_.insert(queue_.begin() + static_cast<std::ptrdiff_t>(i), id);
  if (mid_queue) ++version_;
}

void PriorityFcfsOrder::on_remove(JobId id, Time) {
  erase_queued(queue_, id, "PriorityFcfsOrder");
}

ReplanningOrder::ReplanningOrder(double planned_ratio_threshold)
    : threshold_(planned_ratio_threshold) {
  if (threshold_ <= 0.0 || threshold_ > 1.0) {
    throw std::invalid_argument("ReplanningOrder: threshold out of (0,1]");
  }
}

void ReplanningOrder::reset(const sim::Machine& machine, const JobStore& store) {
  machine.validate();
  store_ = &store;
  machine_nodes_ = machine.nodes;
  queue_.clear();
  planned_ = 0;
  version_ = 1;
  replans_ = 0;
}

void ReplanningOrder::on_submit(JobId id, Time) {
  // Unplanned jobs queue FCFS behind the planned prefix until a replan
  // folds them in.
  queue_.push_back(id);
  maybe_replan();
}

void ReplanningOrder::on_remove(JobId id, Time) {
  const std::size_t i = erase_queued(queue_, id, "ReplanningOrder");
  if (i < planned_) --planned_;
}

void ReplanningOrder::maybe_replan() {
  if (queue_.empty()) return;
  const double ratio =
      static_cast<double>(planned_) / static_cast<double>(queue_.size());
  if (ratio >= threshold_) return;
  queue_ = plan(queue_);
  planned_ = queue_.size();
  ++version_;
  ++replans_;
}

}  // namespace jsched::core
