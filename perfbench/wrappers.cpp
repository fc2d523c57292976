#include "wrappers.h"

#include <stdexcept>

#include "core/easy_backfill.h"
#include "core/psrs.h"
#include "core/smart.h"

namespace perfbench {

void TracedOrdering::reset(const sim::Machine& machine,
                           const core::JobStore& store) {
  Timed t(trace_.ordering);
  inner_->reset(machine, store);
}

void TracedOrdering::on_submit(JobId id, Time now) {
  Timed t(trace_.ordering);
  inner_->on_submit(id, now);
}

void TracedOrdering::on_remove(JobId id, Time now) {
  Timed t(trace_.ordering);
  inner_->on_remove(id, now);
}

void TracedDispatcher::reset(const sim::Machine& machine,
                             const core::JobStore& store) {
  Timed t(trace_.dispatch);
  inner_->reset(machine, store);
}

void TracedDispatcher::on_enqueue(JobId id, Time now) {
  Timed t(trace_.dispatch);
  inner_->on_enqueue(id, now);
}

void TracedDispatcher::on_start(JobId id, Time now) {
  Timed t(trace_.dispatch);
  inner_->on_start(id, now);
}

void TracedDispatcher::on_complete(JobId id, Time now, Time estimated_end,
                                   const std::vector<JobId>& order) {
  Timed t(trace_.dispatch);
  inner_->on_complete(id, now, estimated_end, order);
}

void TracedDispatcher::on_reorder(const std::vector<JobId>& order, Time now) {
  Timed t(trace_.dispatch);
  inner_->on_reorder(order, now);
}

void TracedDispatcher::on_capacity_change(
    Time now, int available_nodes, const std::vector<JobId>& order,
    const std::vector<core::RunningJob>& running) {
  Timed t(trace_.dispatch);
  inner_->on_capacity_change(now, available_nodes, order, running);
}

void TracedDispatcher::adopt(Time now, const std::vector<JobId>& order,
                             const std::vector<core::RunningJob>& running) {
  Timed t(trace_.dispatch);
  inner_->adopt(now, order, running);
}

void TracedDispatcher::select(Time now, int free_nodes,
                              const std::vector<JobId>& order,
                              const std::vector<core::RunningJob>& running,
                              std::vector<JobId>& starts) {
  Timed t(trace_.dispatch);
  inner_->select(now, free_nodes, order, running, starts);
}

void TracedScheduler::reset(const sim::Machine& machine) {
  fold_replan_stats();
  Timed t(trace_.reset);
  inner_->reset(machine);
}

void TracedScheduler::on_submit(const Submission& job, Time now) {
  {
    Timed t(trace_.on_submit);
    inner_->on_submit(job, now);
  }
  const std::size_t queued = inner_->queue_length();
  if (queued > trace_.queue_peak) trace_.queue_peak = queued;
}

void TracedScheduler::on_complete(JobId id, Time now) {
  Timed t(trace_.on_complete);
  inner_->on_complete(id, now);
}

void TracedScheduler::on_capacity_change(Time now, int available_nodes) {
  Timed t(trace_.on_capacity_change);
  inner_->on_capacity_change(now, available_nodes);
}

void TracedScheduler::select_starts(Time now, int free_nodes,
                                    std::vector<JobId>& starts) {
  Timed t(trace_.select_starts);
  inner_->select_starts(now, free_nodes, starts);
}

Time TracedScheduler::next_wakeup(Time now) const {
  ++trace_.next_wakeup_calls;
  return inner_->next_wakeup(now);
}

void TracedScheduler::fold_replan_stats() {
  const auto* traced =
      dynamic_cast<const TracedDispatcher*>(&inner_->dispatcher());
  const auto* cons =
      traced == nullptr
          ? nullptr
          : dynamic_cast<const core::ConservativeBackfillDispatch*>(
                &traced->inner());
  if (cons == nullptr) return;
  const auto& s = cons->replan_stats();
  auto& sum = trace_.cons;
  sum.completions += s.completions;
  sum.replans_elided += s.replans_elided;
  sum.replans += s.replans;
  sum.replaced += s.replaced;
  sum.reused += s.reused;
  sum.certified += s.certified;
  sum.moved += s.moved;
  sum.cursor_restarts += s.cursor_restarts;
}

std::unique_ptr<sim::Scheduler> make_traced_scheduler(
    const core::AlgorithmSpec& spec, CoreTrace& trace) {
  // Mirrors core::make_scheduler's assembly; the fingerprint gates prove
  // the two build the same scheduler.
  std::unique_ptr<core::OrderingPolicy> order;
  switch (spec.order) {
    case core::OrderKind::kFcfs:
      order = std::make_unique<core::FcfsOrder>();
      break;
    case core::OrderKind::kSmartFfia:
    case core::OrderKind::kSmartNfiw: {
      core::SmartParams p = spec.smart;
      p.variant = spec.order == core::OrderKind::kSmartFfia
                      ? core::SmartVariant::kFfia
                      : core::SmartVariant::kNfiw;
      p.weight = spec.weight;
      order = std::make_unique<core::SmartOrder>(p);
      break;
    }
    case core::OrderKind::kPsrs: {
      core::PsrsParams p = spec.psrs;
      p.weight = spec.weight;
      order = std::make_unique<core::PsrsOrder>(p);
      break;
    }
  }
  std::unique_ptr<core::Dispatcher> dispatch;
  switch (spec.dispatch) {
    case core::DispatchKind::kList:
      dispatch = std::make_unique<core::HeadOnlyDispatch>();
      break;
    case core::DispatchKind::kFirstFit:
      dispatch = std::make_unique<core::FirstFitDispatch>();
      break;
    case core::DispatchKind::kConservative:
      dispatch =
          std::make_unique<core::ConservativeBackfillDispatch>(spec.conservative);
      break;
    case core::DispatchKind::kEasy:
      dispatch = std::make_unique<core::EasyBackfillDispatch>();
      break;
  }
  auto list = std::make_unique<core::ListScheduler>(
      std::make_unique<TracedOrdering>(std::move(order), trace),
      std::make_unique<TracedDispatcher>(std::move(dispatch), trace));
  return std::make_unique<TracedScheduler>(std::move(list), trace);
}

std::string config_slug(const core::AlgorithmSpec& spec) {
  if (spec.dispatch == core::DispatchKind::kFirstFit) return "gg";
  std::string s;
  switch (spec.order) {
    case core::OrderKind::kFcfs: s = "fcfs"; break;
    case core::OrderKind::kPsrs: s = "psrs"; break;
    case core::OrderKind::kSmartFfia: s = "smart_ffia"; break;
    case core::OrderKind::kSmartNfiw: s = "smart_nfiw"; break;
  }
  switch (spec.dispatch) {
    case core::DispatchKind::kList: return s + "_list";
    case core::DispatchKind::kConservative: return s + "_cons";
    case core::DispatchKind::kEasy: return s + "_easy";
    case core::DispatchKind::kFirstFit: break;
  }
  throw std::logic_error("config_slug: unknown dispatcher");
}

}  // namespace perfbench
