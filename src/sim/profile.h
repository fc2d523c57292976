// Future node-availability profile.
//
// Backfilling (paper §5.2) plans against *estimated* completion times: the
// profile is a piecewise-constant map from time to free nodes, updated as
// jobs are allocated (running jobs until their estimated end, reservations
// for queued jobs) and as capacity is returned early when a job finishes
// before its estimate.
#pragma once

#include <array>
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

 private:
  friend class Profile;
  /// Index of the breakpoint at `t`, inserted (carrying the value in
  /// effect at `t`) when absent.
  std::size_t materialize(Time t);

  // One span boundary for build()'s sweep: +nodes at a start, -nodes at
  // an end, tagged 2 * span + (1 for an end) so the sweep can report the
  // breakpoint it landed on.
  struct Edge {
    Time t;
    int delta;
    std::uint32_t slot;
  };

  // Parallel arrays: add_[i] applies on [t_[i], t_[i+1]), and 0 outside.
  // Adjacent equal values are not merged — retire() relies on every
  // boundary build() made staying present, and the merged walks in
  // Profile tolerate redundant breakpoints.
  std::vector<Time> t_;
  std::vector<int> add_;
  // build()'s sweep buffer, kept between calls so a rebuild allocates
  // nothing once it has grown to the largest batch.
  std::vector<Edge> edges_;
};

/// Piecewise-constant free-capacity timeline.
///
/// Stored as a flat sorted vector of {time, free} breakpoints, each valid
/// from its time until the next breakpoint; the final breakpoint extends to
/// infinity. There is always a breakpoint at or before any queried time
/// (the initial one sits at time 0, or at the `now` passed to compact()).
/// The vector may carry a dead prefix of [0, front_) retired breakpoints:
/// compact() advances the offset in O(1) and the storage is physically
/// erased only once the dead prefix dominates (amortized O(1) per call),
/// keeping kHeadroom dead slots in front of the live range.
///
/// A structural edit (a breakpoint inserted, or merged away) shifts
/// whichever side of the live range is shorter. Near the front — where a
/// replan edits, close to `now` — the breakpoints before the edit slide
/// one slot into the dead prefix (an insert needs one dead slot; without
/// one the suffix shifts); otherwise the suffix shifts, as in a vector
/// insert or erase.
///
/// The breakpoints are augmented with an implicit segment tree over the
/// free-capacity values (range-min to find the next blocking breakpoint,
/// range-max to jump to the next candidate window), so
///   * earliest_fit() is a descent over candidate windows  — O(log n) per
///     window inspected, and each under-capacity run is inspected at most
///     once per query (no restart scans over breakpoints),
///   * allocate()/release() that only modify breakpoint values in place
///     (no insert/erase, the steady-state case) repair the tree over the
///     touched leaf span immediately — O(touched + log n) — and leave any
///     pending stale leaves untouched,
///   * structural allocate()/release() leave their leaves stale: the
///     shifted head and the rewritten values as up to two ranges, and the
///     shifted suffix. earliest_fit() repairs them lazily (its descents may
///     inspect any node right of the query): each range leaf by leaf with
///     its ancestors, then the suffix wholesale, so an edit near the front
///     costs the leaves it moved, not every leaf after it.
///
/// The adjacent-equal-value merge rule keeps the representation canonical:
/// two profiles that agree as step functions store identical breakpoints.
class Profile {
 public:
  explicit Profile(int total_nodes);

  int total_nodes() const noexcept { return total_; }

  /// Free nodes at time t.
  int capacity_at(Time t) const;

  /// Earliest t >= from such that `nodes` are free throughout
  /// [t, t + duration). Always exists (the profile eventually returns to
  /// full capacity). `nodes` fit at `from` exactly when it returns `from`.
  Time earliest_fit(Time from, Duration duration, int nodes) const;

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
  /// when reservations are close to now. The walk anchors with one binary
  /// search for `from`. Unlike earliest_fit() this never touches the
  /// segment tree (and so never pays a deferred rebuild).
  Time earliest_fit_with(const CapacityOverlay& extra, Time from,
                         Duration duration, int nodes, Time stop) const;

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
  /// earliest_fit_with this never touches the segment tree.
  Time earliest_fit_in_growth(const CapacityOverlay& extra,
                              const CapacityOverlay& growth, Time from,
                              Time before, Duration duration,
                              int nodes) const;

  /// Subtract `nodes` over [start, start + duration). Precondition: the
  /// nodes are free there (earliest_fit(start, duration, nodes) == start).
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

  /// Number of stored (live) breakpoints (for tests/benchmarks).
  std::size_t breakpoints() const noexcept { return pts_.size() - front_; }

  /// What mutations cost since construction, in breakpoint slots and tree
  /// leaves (for tests and benchmarks).
  struct Upkeep {
    std::uint64_t structural_edits = 0;  ///< breakpoints inserted or erased
    /// Breakpoint slots shifted by those edits and by compact()'s splice.
    std::uint64_t slots_moved = 0;
    /// Segment-tree leaves written by the in-place and the lazy repairs.
    std::uint64_t leaves_rewritten = 0;
  };
  const Upkeep& upkeep() const noexcept { return upkeep_; }

  /// Debug rendering "t0:c0 t1:c1 ...".
  std::string dump() const;

 private:
  struct Breakpoint {
    Time t;
    int free;
  };

  void add_over_range(Time start, Time end, int delta);
  /// Insert `b` before live index k > front_, shifting the shorter side.
  /// Returns b's index: k - 1 when the head slid into the dead prefix.
  std::size_t insert_at(std::size_t k, Breakpoint b);
  /// Erase live index k > front_, shifting the shorter side. Returns how
  /// far the breakpoints before k moved: 1 when the head shifted, else 0.
  std::size_t erase_at(std::size_t k);
  /// Add leaves [lo, hi) to the stale ranges (below the dirty suffix).
  void mark_stale(std::size_t lo, std::size_t hi);
  /// Every leaf from k on is stale: lower dirty_from_, trim the ranges.
  void mark_suffix(std::size_t k);

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
  // Invariant: every tree node over live leaves only that is not an
  // ancestor of a leaf in a stale range or in [dirty_from_,
  // max(filled_, n)) agrees with pts_ (a node over a dead leaf is never
  // read). In-place mutations preserve it by repairing their touched span
  // immediately; a head shift at k marks [front_, k) (or [front_, k + 1)
  // for an erase), which absorbs every range the shift moved and covers a
  // leaf the shift made live; a deferred value update marks the leaves it
  // rewrote; a suffix shift lowers dirty_from_ to the first shifted leaf.
  // ensure_tree() restores it everywhere.
  void ensure_tree() const;
  /// Write leaves [lo, hi) from pts_ and recompute their ancestors.
  void repair_range(std::size_t lo, std::size_t hi) const;
  /// First index >= from with free < nodes (pts_.size() when none).
  std::size_t first_below(std::size_t from, int nodes) const;
  /// First index >= from with free >= nodes (pts_.size() when none).
  std::size_t first_at_least(std::size_t from, int nodes) const;

  static constexpr std::size_t kClean = static_cast<std::size_t>(-1);
  /// Dead slots compact()'s splice leaves in front of the live range, so
  /// inserts near the front can still shift the head.
  static constexpr std::size_t kHeadroom = 64;

  int total_;
  std::vector<Breakpoint> pts_;
  std::size_t front_ = 0;  // first live breakpoint (dead prefix before it)
  mutable std::vector<int> tmin_, tmax_;
  mutable std::size_t leaf_cap_ = 0;
  mutable std::size_t filled_ = 0;      // leaves holding real values
  mutable std::size_t dirty_from_ = 0;  // first stale leaf; kClean if none
  // Stale leaves below dirty_from_: sorted, disjoint, non-adjacent ranges.
  // Past kStaleRanges, the two with the narrowest gap are joined.
  struct LeafRange {
    std::size_t lo;
    std::size_t hi;
  };
  static constexpr std::size_t kStaleRanges = 2;
  mutable std::array<LeafRange, kStaleRanges + 1> stale_{};
  mutable std::size_t stale_count_ = 0;
  mutable Upkeep upkeep_;
};

}  // namespace jsched::sim
