// Future node-availability profile.
//
// Backfilling (paper §5.2) plans against *estimated* completion times: the
// profile is a piecewise-constant map from time to free nodes, updated as
// jobs are allocated (running jobs until their estimated end, reservations
// for queued jobs) and as capacity is returned early when a job finishes
// before its estimate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/time.h"

namespace jsched::sim {

/// One hypothetical capacity span for a CapacityOverlay: `nodes` extra free
/// nodes over [start, end).
struct CapacitySpan {
  Time start;
  Time end;
  int nodes;
};

/// Additive step function of *extra* free capacity, laid over a Profile in
/// what-if queries (Profile::earliest_fit_with). The canonical use is
/// conservative-backfill compression screening: the overlay holds the
/// allocations of the reservations that a scratch replan *would* lift, so
/// `profile + overlay` is exactly the profile the scratch procedure would
/// query — without mutating the profile at all.
///
/// Built once from a batch of spans (O(n log n)), which reports where each
/// span's boundaries landed; spans are then retired one at a time by those
/// indices as the screen walks the queue, each retire a linear range add
/// with no search. add() grows the overlay by a span that need not align
/// with existing breakpoints (it inserts the missing boundaries,
/// O(breakpoints), and so shifts the indices build() reported); the
/// screen uses it only on its certificate growth set, to add the slots
/// that movers vacate.
class CapacityOverlay {
 public:
  /// Where one span of a built batch lies: it covers breakpoints
  /// [lo, hi), so breakpoint(lo) is its start and breakpoint(hi) its end,
  /// or hi == breakpoints() when it is open-ended. An empty span reports
  /// lo == hi.
  struct SpanIndex {
    std::size_t lo;
    std::size_t hi;
  };

  /// Replace the overlay with the sum of `spans` (empty spans are ignored).
  /// When `index` is given, it is resized to spans.size() and receives
  /// each span's breakpoint indices.
  void build(const std::vector<CapacitySpan>& spans,
             std::vector<SpanIndex>* index = nullptr);

  /// Remove `nodes` over one span of the built batch, by the index build()
  /// reported. Preconditions: no add() since build(), and the span's
  /// capacity is still present (asserted in debug builds).
  void retire(SpanIndex span, int nodes);

  /// Add `nodes` extra free nodes over [start, end).
  void add(Time start, Time end, int nodes);

  void clear() noexcept {
    t_.clear();
    add_.clear();
  }
  bool empty() const noexcept { return t_.empty(); }
  std::size_t breakpoints() const noexcept { return t_.size(); }
  /// Time of breakpoint `i` < breakpoints().
  Time breakpoint(std::size_t i) const { return t_[i]; }

  /// Extra free nodes at time `t` (0 before the first breakpoint).
  int at(Time t) const;

 private:
  friend class Profile;
  /// Index of the breakpoint at `t`, inserted (carrying the value in
  /// effect at `t`) when absent.
  std::size_t materialize(Time t);

  // Parallel arrays: add_[i] applies on [t_[i], t_[i+1]), and 0 outside.
  // Adjacent equal values are not merged — retire() relies on every
  // boundary build() made staying present, and the merged walks in
  // Profile tolerate redundant breakpoints.
  std::vector<Time> t_;
  std::vector<int> add_;
};

/// Piecewise-constant free-capacity timeline.
///
/// Stored as a flat sorted vector of {time, free} breakpoints, each valid
/// from its time until the next breakpoint; the final breakpoint extends to
/// infinity. There is always a breakpoint at or before any queried time
/// (the initial one sits at time 0, or at the `now` passed to compact()).
/// The vector may carry a dead prefix of [0, front_) retired breakpoints:
/// compact() advances the offset in O(1) and the storage is physically
/// erased only once the dead prefix dominates (amortized O(1) per call).
///
/// The breakpoints are augmented with an implicit segment tree over the
/// free-capacity values (range-min for fits(), plus range-max to jump
/// between candidate windows), so
///   * fits() is one range-min query                       — O(log n),
///   * earliest_fit() is a descent over candidate windows  — O(log n) per
///     window inspected, and each under-capacity run is inspected at most
///     once per query (no restart scans over breakpoints),
///   * allocate()/release() that only modify breakpoint values in place
///     (no insert/erase, the steady-state case) repair the tree over the
///     touched leaf span immediately — O(touched + log n) — and leave any
///     pending suffix dirtiness untouched,
///   * structural allocate()/release() (edge inserted or merged away) mark
///     the tree dirty from the first shifted leaf; queries repair lazily —
///     fits() only up to its own right boundary, earliest_fit() fully
///     (its descents may inspect any suffix node).
///
/// A BulkUpdate scope defers even the in-place repairs, so a burst of
/// mutations (a replan lifting k reservations) pays one combined repair at
/// the first query after the burst instead of k interleaved ones.
///
/// The adjacent-equal-value merge rule keeps the representation canonical:
/// two profiles that agree as step functions store identical breakpoints.
class Profile {
 public:
  explicit Profile(int total_nodes);

  int total_nodes() const noexcept { return total_; }

  /// Free nodes at time t.
  int capacity_at(Time t) const;

  /// True if `nodes` are free throughout [start, start + duration).
  bool fits(Time start, Duration duration, int nodes) const;

  /// Earliest t >= from such that `nodes` are free throughout
  /// [t, t + duration). Always exists (the profile eventually returns to
  /// full capacity).
  Time earliest_fit(Time from, Duration duration, int nodes) const;

  /// Resumable scan state for batched earliest-fit queries. A cursor
  /// remembers which segment contained the previous query's `from`, so a
  /// run of queries anchored at the same (or advancing) instant skips the
  /// per-query binary search and resumes walking the breakpoint vector
  /// where it stood. The cursor revalidates itself against the owning
  /// profile and its mutation counter: any profile mutation (or a different
  /// profile) forces one fresh binary search, counted in restarts().
  /// Stale cursors are therefore always safe, never wrong.
  class Cursor {
   public:
    /// Queries that had to re-anchor with a binary search instead of
    /// resuming (first use, profile mutated, or `from` moved backwards).
    std::uint64_t restarts() const noexcept { return restarts_; }

   private:
    friend class Profile;
    const Profile* owner_ = nullptr;
    std::uint64_t version_ = 0;
    std::size_t idx_ = 0;  // segment index of the previous query's `from`
    std::uint64_t restarts_ = 0;
  };

  /// Earliest fit of (duration, nodes) in the pointwise sum
  /// `*this + extra`, scanning merged breakpoints linearly from `from`,
  /// clamped at `stop`. Precondition: `stop` is itself a known fit — the
  /// caller guarantees `nodes` free throughout [stop, stop + duration) in
  /// the sum (compression screening satisfies this trivially: the
  /// reservation under test is allocated in the profile and lifted by the
  /// overlay, so its own window has >= nodes free) — or kTimeInfinity for
  /// an unbounded search. Under that guarantee the result is exact: the
  /// true earliest fit if it starts before `stop`, else `stop` — and the
  /// walk never advances past `stop`, which is what makes screening cheap
  /// when reservations are close to now. Unlike earliest_fit() this never
  /// touches the segment tree (and so never pays a deferred rebuild).
  /// Returns kTimeInfinity when `max_steps` merged breakpoints were
  /// consumed first ("unknown — caller falls back"); a real fit is always
  /// finite.
  Time earliest_fit_with(const CapacityOverlay& extra, Cursor& cursor,
                         Time from, Duration duration, int nodes, Time stop,
                         std::size_t max_steps) const;

  /// Growth-confined earliest fit: the earliest fit of (duration, nodes)
  /// in `*this + extra` that starts in [from, before), else `before`.
  /// Precondition (a standing "no earlier fit" certificate): the view
  /// `*this + extra - growth` has no fit starting in [from, before). Then
  /// every fit starting before `before` contains a *crossing* — an
  /// instant u with growth(u) > 0 and
  ///   combined(u) - growth(u) < nodes <= combined(u)
  /// — because somewhere in it capacity was short without the growth. So
  /// the query walks only the growth region looking for crossings and, at
  /// each, the run of combined capacity >= nodes through it (left to where
  /// the run starts, right until it is `duration` long or ends); the
  /// stretch from `from` to the first crossing is never walked. Like
  /// earliest_fit_with this never touches the segment tree. Returns
  /// kTimeInfinity when `max_steps` merged breakpoints were consumed first
  /// ("unknown — caller falls back").
  Time earliest_fit_in_growth(const CapacityOverlay& extra,
                              const CapacityOverlay& growth, Time from,
                              Time before, Duration duration, int nodes,
                              std::size_t max_steps) const;

  /// Subtract `nodes` over [start, start + duration). Precondition: fits().
  void allocate(Time start, Duration duration, int nodes);

  /// Add `nodes` back over [start, start + duration). Inverse of allocate;
  /// also used to return capacity early when a job beats its estimate.
  void release(Time start, Duration duration, int nodes);

  /// Drop breakpoints strictly before `now` (keeping the value in effect
  /// at `now`). Call as simulation time advances to keep operations
  /// O(future). A no-op when `now` is inside (or at the start of) the
  /// first segment; otherwise O(1) amortized — the dead prefix is only
  /// spliced out of storage once it dominates. Precondition (asserted):
  /// `now` is not earlier than the first breakpoint — time never flows
  /// backwards in the simulator.
  void compact(Time now);

  /// Scoped batch-mutation mode: while at least one BulkUpdate is alive,
  /// allocate()/release() defer all segment-tree maintenance (queries are
  /// still valid — they repair on demand). Open one around a burst of
  /// mutations with no interleaved queries, e.g. a replan lifting every
  /// reservation, so the burst pays one combined repair at the next query
  /// instead of one per mutation. Mutations and queries remain legal (and
  /// byte-identical in effect) inside the scope; only their cost changes.
  class BulkUpdate {
   public:
    explicit BulkUpdate(Profile& p) noexcept : p_(&p) { ++p.bulk_depth_; }
    ~BulkUpdate() { --p_->bulk_depth_; }
    BulkUpdate(const BulkUpdate&) = delete;
    BulkUpdate& operator=(const BulkUpdate&) = delete;

   private:
    Profile* p_;
  };

  /// Number of stored (live) breakpoints (for tests/benchmarks).
  std::size_t breakpoints() const noexcept { return pts_.size() - front_; }

  /// Debug rendering "t0:c0 t1:c1 ...".
  std::string dump() const;

 private:
  struct Breakpoint {
    Time t;
    int free;
  };

  void add_over_range(Time start, Time end, int delta);

  /// Index of the segment containing t (pts_[i].t <= t < pts_[i+1].t).
  std::size_t segment_at(Time t) const;

  /// First index with pts_[i].t >= t (== pts_.size() when none), searching
  /// the live range [front_, size).
  std::size_t lower_bound(Time t) const;

  // --- implicit segment tree over pts_[i].free -------------------------
  // Leaves [leaf_cap_, leaf_cap_ + n) mirror the physical pts_ array
  // (dead-prefix leaves are never consulted: every query starts at a live
  // index and only ever moves right), padded with sentinels; internal
  // node i covers children 2i and 2i+1.
  //
  // Invariant: every tree node that is not an ancestor of a leaf in
  // [dirty_from_, max(filled_, n)) agrees with pts_. In-place mutations
  // preserve it by repairing their touched span immediately; structural
  // mutations preserve it by lowering dirty_from_ to the first shifted
  // leaf. ensure_tree() restores it everywhere; ensure_tree_to(hi)
  // restores it for [0, hi) and advances dirty_from_ to hi, which is
  // enough for bottom-up range queries whose nodes lie entirely inside
  // [0, hi).
  void ensure_tree() const;
  void ensure_tree_to(std::size_t hi) const;
  /// Write leaves [lo, hi) from pts_ and recompute their ancestors.
  void repair_range(std::size_t lo, std::size_t hi) const;
  /// First index >= from with free < nodes (pts_.size() when none).
  std::size_t first_below(std::size_t from, int nodes) const;
  /// First index >= from with free >= nodes (pts_.size() when none).
  std::size_t first_at_least(std::size_t from, int nodes) const;
  /// Min free over segment indices [lo, hi).
  int range_min(std::size_t lo, std::size_t hi) const;

  static constexpr std::size_t kClean = static_cast<std::size_t>(-1);

  int total_;
  int bulk_depth_ = 0;
  std::vector<Breakpoint> pts_;
  std::size_t front_ = 0;  // first live breakpoint (dead prefix before it)
  // Bumped on every mutation that can move or revalue breakpoints
  // (allocate/release/compact); lets a Cursor detect that its cached
  // segment index may no longer be meaningful.
  std::uint64_t version_ = 1;
  mutable std::vector<int> tmin_, tmax_;
  mutable std::size_t leaf_cap_ = 0;
  mutable std::size_t filled_ = 0;      // leaves holding real values
  mutable std::size_t dirty_from_ = 0;  // first stale leaf; kClean if none
};

}  // namespace jsched::sim
