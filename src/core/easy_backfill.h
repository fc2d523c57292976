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
// job behind the blocked head fits the free nodes. The running set is kept
// sorted by estimated end, so the reservation is one walk over it and the
// round's greedy starts.
//
// The extra nodes follow one rule: sort the running jobs, then this
// round's greedy starts, by estimated end with std::sort and add them one
// at a time until the head fits. When several jobs end at the shadow time,
// the answer can depend on where that unstable sort put them. The walk
// answers every tie whose answer is the same in any order; for the others
// select() sorts a copy of that sequence.
//
// A passed-over job can start only once the free nodes, the shadow time or
// the extra nodes change, and none of them changes until a job completes
// or the capacity changes. So a select settles a frontier at the end of
// the queue with the reservation it left, and the next select, if it sees
// the same free nodes with no completion or reorder between, searches only
// the jobs queued since against that reservation. DESIGN §5 item 2 gives
// the argument and the conditions.
#pragma once

#include <optional>

#include "core/dispatch.h"

namespace jsched::core {

class EasyBackfillDispatch final : public Dispatcher {
 public:
  std::string name() const override { return "EASY"; }
  void reset(const sim::Machine&, const JobStore& store) override;
  void on_enqueue(JobId id, Time) override {
    queue_.push_back(store_->get(id));
  }
  void on_start(JobId id, Time now) override;
  void on_complete(JobId id, Time now, Time estimated_end,
                   const std::vector<JobId>& order) override;
  void on_reorder(const std::vector<JobId>& order, Time) override {
    queue_.assign(order, *store_);
  }
  void adopt(Time now, const std::vector<JobId>& order,
             const std::vector<RunningJob>& running) override;
  void select(Time now, int free_nodes, const std::vector<JobId>& order,
              const std::vector<RunningJob>& running,
              std::vector<JobId>& starts) override;

  const SelectStats& select_stats() const noexcept { return stats_; }

 private:
  /// A running job or greedy start: its estimated end and its width.
  struct End {
    Time at;
    int nodes;
  };
  /// The head's reservation: when it can start, and the nodes free then
  /// beyond its width (negative when even the whole running set is short).
  struct Shadow {
    Time time;
    int extra;
    friend bool operator==(const Shadow&, const Shadow&) = default;
  };

  /// The reservation for a head of `need` nodes from the ordered running
  /// set and this round's greedy starts; nullopt when a tie at the shadow
  /// time leaves the extra nodes to the order of the sort.
  std::optional<Shadow> ordered_shadow(Time now, int free_nodes,
                                       int need) const;
  /// The same reservation by copying `running` + the greedy starts
  /// `greedy` and sorting the copy with std::sort: the rule the
  /// order-sensitive ties follow.
  [[gnu::cold]] Shadow sorted_shadow(Time now, int free_nodes, int need,
                                     const std::vector<RunningJob>& running,
                                     const std::vector<std::size_t>& greedy);

  /// How a search ended: the free nodes its picks left and, when it
  /// backfilled behind a blocked head, the head's reservation with the
  /// extra nodes the picks left.
  struct Outcome {
    int free_nodes;
    std::optional<Shadow> shadow;
    /// The next select may resume at this frontier: the shadow came from
    /// the order-free walk and no backfill ends at its time.
    bool settles;
  };
  /// The one search a select makes, appending the slots to start to
  /// `picked`: greedy starts from the head, then backfills behind it. With
  /// `from` 0 it computes the head's reservation; otherwise it resumes at
  /// the frontier `from` with the reservation `settled`.
  Outcome search(Time now, int free_nodes, std::size_t from,
                 const Shadow& settled,
                 const std::vector<RunningJob>& running, SelectStats& stats,
                 std::vector<std::size_t>& picked);

  const JobStore* store_ = nullptr;
  QueueIndex queue_;
  SelectStats stats_;
  // The running set, sorted by estimated end (ties in no set order).
  std::vector<End> running_ends_;
  // The reservation the queue's settled frontier was left with.
  Shadow settled_{};
  // Scratch, kept as members so the per-event hot path reuses their
  // capacity: this select's slots, its greedy starts sorted by estimated
  // end, and the copy the sorted fallback sorts.
  std::vector<std::size_t> picked_;
  std::vector<End> start_ends_;
  std::vector<RunningJob> active_;
};

}  // namespace jsched::core
