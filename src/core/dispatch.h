// Dispatch policies: how an ordered wait queue is placed on the machine.
//
//  * HeadOnlyDispatch — the plain "greedy list schedule" of the paper: the
//    next job in the list is started as soon as the necessary resources
//    are available; a blocked head blocks everything behind it (§5.1).
//  * FirstFitDispatch — the classical Garey&Graham list scheduling (§5.3):
//    "always starts the next job for which enough resources are
//    available"; backfilling is a no-op on top of this by construction.
//    It searches its wait queue through a QueueIndex, like EASY, and
//    resumes at the last select's frontier while the free nodes are
//    those it left: a job it passed over needed more, whatever completed
//    since.
//  * EasyBackfillDispatch / ConservativeBackfillDispatch — §5.2, in their
//    own headers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/job_store.h"
#include "core/queue_index.h"
#include "sim/machine.h"
#include "util/time.h"

namespace jsched::core {

/// Per-select context handed from the ListScheduler to its dispatcher.
struct RunningJob {
  JobId id;
  Time start;
  Time estimated_end;  // start + estimate; actual end may come earlier
  int nodes;
};

class Dispatcher {
 public:
  virtual ~Dispatcher() = default;

  /// Name suffix, e.g. "EASY"; empty for the plain list schedule.
  virtual std::string name() const = 0;

  virtual void reset(const sim::Machine& machine, const JobStore& store) = 0;

  /// Queue/lifecycle notifications (defaults: stateless dispatchers ignore
  /// them). on_start is delivered for jobs the last select() returned, in
  /// the order it returned them; a decorator may have vetoed some.
  virtual void on_enqueue(JobId, Time) {}
  virtual void on_start(JobId, Time) {}
  virtual void on_complete(JobId, Time, Time /*estimated_end*/,
                           const std::vector<JobId>& /*order*/) {}
  virtual void on_reorder(const std::vector<JobId>&, Time) {}

  /// The machine's node count changed to `available_nodes` (fault
  /// injection). Kills caused by the change were already delivered via
  /// on_complete; `running` is the post-kill active set. Dispatchers that
  /// plan only against the free_nodes handed to select() (head-only,
  /// first-fit, EASY — all recompute per call) need nothing; dispatchers
  /// holding a long-range availability profile override it to rebuild
  /// their plan at the new capacity.
  virtual void on_capacity_change(Time now, int available_nodes,
                                  const std::vector<JobId>& order,
                                  const std::vector<RunningJob>& running) {
    (void)now;
    (void)available_nodes;
    (void)order;
    (void)running;
  }

  /// Take over a machine mid-flight (phase-switched schedulers): rebuild
  /// any internal state from the currently running jobs and the queue
  /// order. Dispatchers that track only the queue need nothing beyond the
  /// default, which rebuilds it through on_reorder.
  virtual void adopt(Time now, const std::vector<JobId>& order,
                     const std::vector<RunningJob>& running) {
    (void)running;
    on_reorder(order, now);
  }

  /// Fill `starts` with the jobs to start now (clearing whatever it held;
  /// the buffer is caller-owned and reused across calls). `order` is the
  /// current queue (highest priority first); `running` the active jobs.
  /// Selected jobs must fit in free_nodes cumulatively.
  virtual void select(Time now, int free_nodes,
                      const std::vector<JobId>& order,
                      const std::vector<RunningJob>& running,
                      std::vector<JobId>& starts) = 0;

  /// See sim::Scheduler::next_wakeup.
  virtual Time next_wakeup(Time) const { return kTimeInfinity; }
};

/// Greedy list schedule: start from the head, stop at the first job that
/// does not fit.
class HeadOnlyDispatch final : public Dispatcher {
 public:
  std::string name() const override { return ""; }
  void reset(const sim::Machine&, const JobStore& store) override { store_ = &store; }
  void select(Time now, int free_nodes, const std::vector<JobId>& order,
              const std::vector<RunningJob>& running,
              std::vector<JobId>& starts) override;

 private:
  const JobStore* store_ = nullptr;
};

/// Selection accounting of the dispatchers that search their wait queue
/// (first fit and EASY), reset() to zero. Exposed for tests and the
/// library's op counts.
struct SelectStats {
  std::uint64_t selects = 0;         ///< select() calls
  std::uint64_t settled = 0;         ///< selects resumed at a frontier
  std::uint64_t shadows = 0;         ///< EASY shadow-time computations
  std::uint64_t tie_sorts = 0;       ///< shadows left to EASY's sorted copy
  std::uint64_t slots_examined = 0;  ///< queue slots and index nodes read
};

/// Garey & Graham: start every job that fits, in queue order (ties broken
/// by queue position). The queue index leads the search from one fitting
/// job to the next.
class FirstFitDispatch final : public Dispatcher {
 public:
  std::string name() const override { return "FF"; }
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
  /// Append to `picked` every slot at or after `from` that fits, in queue
  /// order, each with the nodes the ones before it left; returns the free
  /// nodes left after them.
  int search(std::size_t from, int free_nodes, std::uint64_t& examined,
             std::vector<std::size_t>& picked) const;

  const JobStore* store_ = nullptr;
  QueueIndex queue_;
  SelectStats stats_;
  std::vector<std::size_t> picked_;  // scratch: this select's slots
};

}  // namespace jsched::core
