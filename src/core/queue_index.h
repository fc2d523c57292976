// The wait queue as the backfilling dispatchers search it: EASY (paper
// §5.2) and Garey&Graham first fit (§5.3).
//
// Both dispatchers ask the queue one question, several times a round:
// which is the first job at or after position p that may start now? It
// must fit the free nodes and either end, by its estimate, within a
// window (EASY: before the shadow time) or need no more than `extra`
// nodes. A linear scan answers it in O(queue) per round, and behind a deep
// queue almost every position it reads fails.
//
// QueueIndex holds the queue in queue order, one slot per job with the
// job's id, nodes and estimate inline. A started job leaves a tombstone;
// tombstones are compacted away once they outnumber the live slots. An
// implicit segment tree over the slots keeps each subtree's minimum nodes
// and minimum estimate, so the search skips every subtree that cannot
// hold a candidate.
//
// Minimum nodes and minimum estimate alone may come from different jobs:
// behind a deep queue nearly every subtree holds some narrow job and some
// short one, and a search for a job that is both would visit most of the
// tree. So each subtree keeps its minimum estimate per width band, among
// its jobs of at most 1, 2, 4, ..., 128 nodes and of any width. A search
// for jobs of at most `free` nodes reads the narrowest band that covers
// `free`. A subtree that passes can still hold no fit (its short job may
// be wider than `free` yet inside the band); the search then moves on to
// the next subtree, which costs time but never changes the answer.
//
// The index is fed only the notifications a Dispatcher already receives,
// and relies on the ordering contract documented on OrderingPolicy:
// between reorders, a submitted job joins at the tail and a job leaves
// only when it starts.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/job_store.h"
#include "util/time.h"

namespace jsched::core {

class QueueIndex {
 public:
  /// A queued job as the search reads it.
  struct Slot {
    JobId id = 0;
    int nodes = kTombstone;
    Duration estimate = kAnyEstimate;
  };

  /// Marks a started job's slot (and the padding past the queue's end).
  static constexpr int kTombstone = std::numeric_limits<int>::max();
  /// A window every estimate fits: the search then tests nodes alone.
  static constexpr Duration kAnyEstimate = std::numeric_limits<Duration>::max();
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Empty queue.
  void clear();
  /// Rebuild from the queue `order`, reading each job from `store`.
  void assign(const std::vector<JobId>& order, const JobStore& store);
  /// Append a submitted job at the tail.
  void push_back(const Job& job);

  /// Start a selection round: forget the previous round's taken slots and
  /// compact the tombstones if they outnumber the live slots (slot
  /// positions from before the call are then stale).
  void begin_round();
  /// Record live slot `p` as selected in this round and return its job.
  /// The slot stays live until erase() reports the job started.
  JobId take(std::size_t p);
  /// Job `id`, taken in the current round, started: tombstone its slot.
  /// Throws std::logic_error when the round took no such job.
  void erase(JobId id);

  /// First live slot at or after `from` with nodes <= free_nodes and
  /// (estimate <= window or nodes <= extra); npos when there is none.
  /// Adds the slots and tree nodes it reads to `examined`.
  std::size_t find(std::size_t from, int free_nodes, Duration window,
                   int extra, std::uint64_t& examined) const;
  /// First live slot at or after `from`, whatever it needs.
  std::size_t next_live(std::size_t from, std::uint64_t& examined) const {
    return find(from, kTombstone - 1, kAnyEstimate, 0, examined);
  }

  const Slot& slot(std::size_t p) const { return slots_[p]; }
  /// True when the live slots list exactly `order`, in order.
  bool lists(const std::vector<JobId>& order) const;

 private:
  /// Slots read one by one before the search turns to the tree: answers
  /// behind a shallow queue mostly lie this close.
  static constexpr std::size_t kScanRun = 8;
  static constexpr std::size_t kMinLeaves = 64;
  /// Width bands: at most 2^b nodes for b < kBands - 1, then any width.
  static constexpr int kBands = 9;

  /// What the search reads of a subtree. Estimates are clamped to int32,
  /// so a summary may understate an estimate but never overstate it.
  struct Summary {
    int min_nodes = kTombstone;
    /// Per band, the shortest estimate among the subtree's jobs in it.
    std::array<std::int32_t, kBands> min_estimate;
    Summary() { min_estimate.fill(std::numeric_limits<std::int32_t>::max()); }
    friend bool operator==(const Summary&, const Summary&) = default;
  };

  /// The narrowest band that holds every job of at most `nodes` nodes.
  static int band_of(int nodes);
  static std::int32_t clamped(Duration estimate);
  static Summary summary_of(const Slot& s);
  static Summary merged(const Summary& a, const Summary& b);
  /// Summary of tree node v (a slot when v >= leaves_).
  Summary node(std::size_t v) const {
    return v >= leaves_ ? summary_of(slots_[v - leaves_]) : inner_[v];
  }
  /// Lay out `live` (the live slots, in queue order) as the leaves of a
  /// fresh tree with room to grow, and compute every subtree's summary.
  void rebuild(const std::vector<Slot>& live);
  /// Collect the live slots in queue order into scratch_.
  void gather_live();
  /// Slot `p` lost the job `gone`: recompute its ancestors until one's
  /// summary does not change.
  void repair_up(std::size_t p, const Slot& gone);

  // Implicit segment tree: node v's children are 2v and 2v+1. Nodes
  // [1, leaves_) are inner_; node leaves_ + p is slot p. Slots are in queue
  // order, the first end_ of them used, the rest tombstone padding.
  std::vector<Slot> slots_ = std::vector<Slot>(kMinLeaves);
  std::vector<Summary> inner_ = std::vector<Summary>(kMinLeaves);
  std::size_t leaves_ = kMinLeaves;
  std::size_t end_ = 0;    // slots used, tombstones included
  std::size_t live_ = 0;   // slots used by queued jobs
  std::size_t front_ = 0;  // first live slot (end_ when none)
  /// Slots taken by the current round, in the order taken.
  std::vector<std::size_t> taken_;
  std::size_t next_taken_ = 0;  // where erase() looks first
  std::vector<Slot> scratch_;
};

}  // namespace jsched::core
