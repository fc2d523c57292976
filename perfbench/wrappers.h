// Traced wrappers around the seams the library already exposes. Each one
// forwards every call to the wrapped object unchanged and charges its wall
// time to a Tally, so a traced run makes the same decisions as a plain run
// (the fingerprint gates check this) while the bench learns where the time
// went, layer by layer.
//
//  * core:     TracedOrdering / TracedDispatcher, assembled into a
//              core::ListScheduler by make_traced_scheduler, wrapped in a
//              TracedScheduler (installed through the scheduler_factory
//              hooks of eval::ExperimentOptions and serve::ServeOptions).
//  * workload: TracedSource around a workload::JobSource.
//  * metrics:  TracedSink around a sim::RecordSink.
//  * serve:    TracedFeed around a serve::Feed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/conservative_backfill.h"
#include "core/factory.h"
#include "core/list_scheduler.h"
#include "ledger.h"
#include "serve/feed.h"
#include "sim/scheduler.h"
#include "sim/streaming.h"
#include "workload/job_source.h"

namespace perfbench {

using namespace jsched;

/// Everything the core wrappers record. The Scheduler-level tallies are
/// disjoint and together are the core layer's time; ordering and dispatch
/// are nested inside them (a split of core, not extra time).
struct CoreTrace {
  Tally on_submit, on_complete, select_starts, on_capacity_change, reset;
  std::uint64_t next_wakeup_calls = 0;
  Tally ordering, dispatch;
  std::size_t queue_peak = 0;
  /// Conservative-backfill replan counters, summed over every traced
  /// scheduler that used ConservativeBackfillDispatch.
  core::ConservativeBackfillDispatch::ReplanStats cons{};

  double seconds() const {
    return on_submit.seconds + on_complete.seconds + select_starts.seconds +
           on_capacity_change.seconds + reset.seconds;
  }
};

class TracedOrdering final : public core::OrderingPolicy {
 public:
  TracedOrdering(std::unique_ptr<core::OrderingPolicy> inner, CoreTrace& trace)
      : inner_(std::move(inner)), trace_(trace) {}

  std::string name() const override { return inner_->name(); }
  void reset(const sim::Machine& machine, const core::JobStore& store) override;
  void on_submit(JobId id, Time now) override;
  void on_remove(JobId id, Time now) override;
  const std::vector<JobId>& order() const override { return inner_->order(); }
  std::uint64_t version() const noexcept override { return inner_->version(); }

 private:
  std::unique_ptr<core::OrderingPolicy> inner_;
  CoreTrace& trace_;
};

class TracedDispatcher final : public core::Dispatcher {
 public:
  TracedDispatcher(std::unique_ptr<core::Dispatcher> inner, CoreTrace& trace)
      : inner_(std::move(inner)), trace_(trace) {}

  const core::Dispatcher& inner() const { return *inner_; }

  std::string name() const override { return inner_->name(); }
  void reset(const sim::Machine& machine, const core::JobStore& store) override;
  void on_enqueue(JobId id, Time now) override;
  void on_start(JobId id, Time now) override;
  void on_complete(JobId id, Time now, Time estimated_end,
                   const std::vector<JobId>& order) override;
  void on_reorder(const std::vector<JobId>& order, Time now) override;
  void on_capacity_change(Time now, int available_nodes,
                          const std::vector<JobId>& order,
                          const std::vector<core::RunningJob>& running) override;
  void adopt(Time now, const std::vector<JobId>& order,
             const std::vector<core::RunningJob>& running) override;
  void select(Time now, int free_nodes, const std::vector<JobId>& order,
              const std::vector<core::RunningJob>& running,
              std::vector<JobId>& starts) override;
  Time next_wakeup(Time now) const override { return inner_->next_wakeup(now); }

 private:
  std::unique_ptr<core::Dispatcher> inner_;
  CoreTrace& trace_;
};

class TracedScheduler final : public sim::Scheduler {
 public:
  TracedScheduler(std::unique_ptr<core::ListScheduler> inner, CoreTrace& trace)
      : inner_(std::move(inner)), trace_(trace) {}
  ~TracedScheduler() override { fold_replan_stats(); }
  TracedScheduler(const TracedScheduler&) = delete;
  TracedScheduler& operator=(const TracedScheduler&) = delete;

  std::string name() const override { return inner_->name(); }
  void reset(const sim::Machine& machine) override;
  void on_submit(const Submission& job, Time now) override;
  void on_complete(JobId id, Time now) override;
  void on_capacity_change(Time now, int available_nodes) override;
  void select_starts(Time now, int free_nodes,
                     std::vector<JobId>& starts) override;
  Time next_wakeup(Time now) const override;
  std::size_t queue_length() const override { return inner_->queue_length(); }

 private:
  /// Adds the conservative dispatcher's replan counters (if any) to the
  /// trace. Called before reset() zeroes them and at destruction.
  void fold_replan_stats();

  std::unique_ptr<core::ListScheduler> inner_;
  CoreTrace& trace_;
};

/// The scheduler core::make_scheduler(spec) builds, assembled here from
/// traced parts: same ordering, same dispatcher, same ListScheduler.
std::unique_ptr<sim::Scheduler> make_traced_scheduler(
    const core::AlgorithmSpec& spec, CoreTrace& trace);

/// Metric-name slug of a grid configuration, e.g. "fcfs_cons", "gg".
std::string config_slug(const core::AlgorithmSpec& spec);

class TracedSource final : public workload::JobSource {
 public:
  TracedSource(workload::JobSource& inner, Tally& tally)
      : inner_(inner), tally_(tally) {}

  bool next(Job& out) override {
    Timed t(tally_);
    return inner_.next(out);
  }
  std::size_t size_hint() const noexcept override { return inner_.size_hint(); }
  const std::string& name() const noexcept override { return inner_.name(); }

 private:
  workload::JobSource& inner_;
  Tally& tally_;
};

class TracedSink final : public sim::RecordSink {
 public:
  TracedSink(sim::RecordSink& inner, Tally& tally)
      : inner_(inner), tally_(tally) {}

  void on_record(JobId id, const sim::JobRecord& record,
                 const Job& j) override {
    Timed t(tally_);
    inner_.on_record(id, record, j);
  }
  void on_attempt(const sim::AttemptRecord& attempt) override {
    Timed t(tally_);
    inner_.on_attempt(attempt);
  }
  void on_capacity_event(Time t, int capacity) override {
    Timed timed(tally_);
    inner_.on_capacity_event(t, capacity);
  }

 private:
  sim::RecordSink& inner_;
  Tally& tally_;
};

class TracedFeed final : public serve::Feed {
 public:
  TracedFeed(serve::Feed& inner, Tally& tally) : inner_(inner), tally_(tally) {}

  bool poll(Time vnow, std::vector<serve::SubmitRecord>& out) override {
    Timed t(tally_);
    return inner_.poll(vnow, out);
  }
  Time next_submit() const override { return inner_.next_submit(); }

 private:
  serve::Feed& inner_;
  Tally& tally_;
};

}  // namespace perfbench
