// Differential fuzzing of sim::Profile (flat timeline + segment tree)
// against sim::ReferenceProfile (the seed std::map implementation).
//
// Both structures are driven with identical operation sequences shaped
// like real scheduler traffic — earliest_fit+allocate reservations, early
// completions returning capacity tails, periodic compaction as simulated
// time advances — and must stay byte-identical after every mutation: same
// breakpoints (dump()), same breakpoint count, same answers to every
// query. Any divergence prints the op index and both renderings.
#include "sim/profile.h"
#include "sim/reference_profile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "util/rng.h"

namespace jsched::sim {
namespace {

struct ActiveAllocation {
  Time start;
  Duration duration;  // kTimeInfinity marks an open-ended allocation
  int nodes;

  Time end() const {
    return start > kTimeInfinity - duration ? kTimeInfinity
                                            : start + duration;
  }
};

class Differ {
 public:
  explicit Differ(int total) : fast_(total), ref_(total) {}

  Profile& fast() { return fast_; }
  ReferenceProfile& ref() { return ref_; }

  void expect_identical(std::size_t op) const {
    ASSERT_EQ(fast_.breakpoints(), ref_.breakpoints()) << "op " << op;
    ASSERT_EQ(fast_.dump(), ref_.dump()) << "op " << op;
  }

  void expect_queries_agree(std::size_t op, Time from, Duration dur,
                            int nodes) const {
    ASSERT_EQ(fast_.capacity_at(from), ref_.capacity_at(from)) << "op " << op;
    ASSERT_EQ(fast_.earliest_fit(from, dur, nodes) == from,
              ref_.fits(from, dur, nodes))
        << "op " << op;
    ASSERT_EQ(fast_.earliest_fit(from, dur, nodes),
              ref_.earliest_fit(from, dur, nodes))
        << "op " << op << " from=" << from << " dur=" << dur
        << " nodes=" << nodes;
  }

 private:
  Profile fast_;
  ReferenceProfile ref_;
};

void run_fuzz(std::uint64_t seed, std::size_t ops) {
  constexpr int kTotal = 64;
  Differ d(kTotal);
  util::Rng rng(seed);
  std::vector<ActiveAllocation> active;
  Time now = 0;
  // Nodes held by open-ended (infinite-duration) allocations. earliest_fit
  // only terminates for jobs narrower than the eventually-free capacity,
  // so the fuzzer keeps its requests within kTotal - open_nodes (the
  // explicit saturation/throw cases live in profile_test.cpp).
  int open_nodes = 0;

  for (std::size_t op = 0; op < ops; ++op) {
    const std::int64_t dice = rng.uniform_int(0, 99);
    if (dice < 45) {
      // Reserve like a backfilling scheduler: earliest fit, then allocate.
      const int nodes =
          static_cast<int>(rng.uniform_int(0, kTotal - open_nodes));
      const bool open_ended = rng.bernoulli(0.02) && nodes <= kTotal / 4;
      const Duration dur =
          open_ended ? kTimeInfinity : rng.uniform_int(1, 4000);
      const Time from = now + rng.uniform_int(0, 2000);
      const Time start = d.fast().earliest_fit(from, dur, nodes);
      ASSERT_EQ(start, d.ref().earliest_fit(from, dur, nodes)) << "op " << op;
      d.fast().allocate(start, dur, nodes);
      d.ref().allocate(start, dur, nodes);
      if (nodes > 0) {
        active.push_back({start, dur, nodes});
        if (open_ended) open_nodes += nodes;
      }
    } else if (dice < 70 && !active.empty()) {
      // Complete an allocation early: return the tail [t, end) to the
      // profile, exactly as a job beating its estimate would.
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(active.size()) - 1));
      const ActiveAllocation a = active[pick];
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(pick));
      const Time release_from = std::max(a.start, now);
      if (a.end() > release_from) {
        const Duration tail = a.end() == kTimeInfinity
                                  ? kTimeInfinity
                                  : a.end() - release_from;
        d.fast().release(release_from, tail, a.nodes);
        d.ref().release(release_from, tail, a.nodes);
        if (a.end() == kTimeInfinity) open_nodes -= a.nodes;
      }
    } else if (dice < 80) {
      // Advance simulated time and drop history. Allocations wholly in
      // the past are retired from the bookkeeping (their capacity is
      // inside the compacted region for both structures alike).
      now += rng.uniform_int(0, 1500);
      d.fast().compact(now);
      d.ref().compact(now);
      std::erase_if(active, [&](const ActiveAllocation& a) {
        return a.end() <= now;
      });
    } else {
      // Pure queries.
      const Time from = now + rng.uniform_int(0, 8000);
      const Duration dur = rng.uniform_int(1, 5000);
      const int nodes =
          static_cast<int>(rng.uniform_int(0, kTotal - open_nodes));
      d.expect_queries_agree(op, from, dur, nodes);
    }
    d.expect_identical(op);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Grid-aligned windows: after warm-up most range edges already exist as
// breakpoints, so allocate/release mostly hit the in-place segment-tree
// repair path, with merges (structural) whenever a value meets its
// neighbour — the steady-state mix a replanning scheduler produces. A
// slice of unaligned ops keeps the insert path in the mix, and periodic
// compaction exercises the dead-prefix offset against both repair paths.
void run_in_place_fuzz(std::uint64_t seed, std::size_t ops) {
  constexpr int kTotal = 64;
  constexpr Time kStep = 100;
  Differ d(kTotal);
  util::Rng rng(seed);
  std::vector<ActiveAllocation> active;
  Time now = 0;

  for (std::size_t op = 0; op < ops; ++op) {
    const std::int64_t dice = rng.uniform_int(0, 99);
    if (dice < 50) {
      const bool aligned = dice >= 5;  // 10% unaligned: structural inserts
      const Time start =
          now + (aligned ? rng.uniform_int(0, 40) * kStep
                         : rng.uniform_int(0, 40 * kStep));
      const Duration dur = aligned ? rng.uniform_int(1, 10) * kStep
                                   : rng.uniform_int(1, 10 * kStep);
      const int nodes = static_cast<int>(rng.uniform_int(1, 8));
      const bool fits = d.fast().earliest_fit(start, dur, nodes) == start;
      ASSERT_EQ(fits, d.ref().fits(start, dur, nodes)) << "op " << op;
      if (fits) {
        d.fast().allocate(start, dur, nodes);
        d.ref().allocate(start, dur, nodes);
        active.push_back({start, dur, nodes});
      }
    } else if (dice < 85 && !active.empty()) {
      // Release a whole window (value-only update when its edges survive
      // in neighbouring allocations).
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(active.size()) - 1));
      const ActiveAllocation a = active[pick];
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(pick));
      const Time release_from = std::max(a.start, now);
      if (a.end() > release_from) {
        d.fast().release(release_from, a.end() - release_from, a.nodes);
        d.ref().release(release_from, a.end() - release_from, a.nodes);
      }
    } else if (dice < 90) {
      // Advance time by whole steps so the grid alignment survives
      // compaction.
      now += rng.uniform_int(0, 5) * kStep;
      d.fast().compact(now);
      d.ref().compact(now);
      std::erase_if(active,
                    [&](const ActiveAllocation& a) { return a.end() <= now; });
    } else {
      const Time from = now + rng.uniform_int(0, 50 * kStep);
      const Duration dur = rng.uniform_int(1, 12 * kStep);
      const int nodes = static_cast<int>(rng.uniform_int(0, kTotal));
      d.expect_queries_agree(op, from, dur, nodes);
    }
    d.expect_identical(op);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Batch-mutation mode: lift a burst of allocations inside a
// Profile::BulkUpdate scope (only the fast profile has one — the
// reference sees plain calls), then re-place them through earliest_fit,
// mirroring ConservativeBackfillDispatch::replan. Queries fired inside
// and right after the scope must see exactly the reference's answers.
void run_bulk_fuzz(std::uint64_t seed, std::size_t ops) {
  constexpr int kTotal = 64;
  Differ d(kTotal);
  util::Rng rng(seed);
  std::vector<ActiveAllocation> active;
  Time now = 0;

  for (std::size_t op = 0; op < ops;) {
    // Seed fresh reservations so there is something to lift.
    const std::size_t arrivals = static_cast<std::size_t>(
        rng.uniform_int(1, 4));
    for (std::size_t k = 0; k < arrivals && op < ops; ++k, ++op) {
      const int nodes = static_cast<int>(rng.uniform_int(1, kTotal / 2));
      const Duration dur = rng.uniform_int(1, 4000);
      const Time from = now + rng.uniform_int(0, 2000);
      const Time start = d.fast().earliest_fit(from, dur, nodes);
      ASSERT_EQ(start, d.ref().earliest_fit(from, dur, nodes)) << "op " << op;
      d.fast().allocate(start, dur, nodes);
      d.ref().allocate(start, dur, nodes);
      active.push_back({start, dur, nodes});
      d.expect_identical(op);
    }

    // Replan-shaped burst: release several windows under one BulkUpdate.
    const std::size_t burst = std::min<std::size_t>(
        active.size(), static_cast<std::size_t>(rng.uniform_int(0, 6)));
    std::vector<ActiveAllocation> lifted;
    {
      Profile::BulkUpdate bulk(d.fast());
      for (std::size_t k = 0; k < burst && op < ops; ++k, ++op) {
        const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(active.size()) - 1));
        const ActiveAllocation a = active[pick];
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(pick));
        const Time release_from = std::max(a.start, now);
        if (a.end() <= release_from) continue;
        const Duration tail = a.end() - release_from;
        d.fast().release(release_from, tail, a.nodes);
        d.ref().release(release_from, tail, a.nodes);
        lifted.push_back({release_from, tail, a.nodes});
        if (rng.bernoulli(0.25)) {
          // Queries are legal inside the scope and repair on demand.
          d.expect_queries_agree(op, now + rng.uniform_int(0, 4000),
                                 rng.uniform_int(1, 3000),
                                 static_cast<int>(rng.uniform_int(0, kTotal)));
        }
      }
      d.expect_identical(op);
      if (::testing::Test::HasFatalFailure()) return;
    }

    // Re-place the lifted windows from `now` (phase 2: queries after the
    // scope closed).
    for (const ActiveAllocation& a : lifted) {
      if (op >= ops) break;
      const Time start = d.fast().earliest_fit(now, a.duration, a.nodes);
      ASSERT_EQ(start, d.ref().earliest_fit(now, a.duration, a.nodes))
          << "op " << op;
      d.fast().allocate(start, a.duration, a.nodes);
      d.ref().allocate(start, a.duration, a.nodes);
      active.push_back({start, a.duration, a.nodes});
      d.expect_identical(op);
      ++op;
    }
    if (::testing::Test::HasFatalFailure()) return;

    if (rng.bernoulli(0.2)) {
      now += rng.uniform_int(0, 1500);
      d.fast().compact(now);
      d.ref().compact(now);
      std::erase_if(active,
                    [&](const ActiveAllocation& a) { return a.end() <= now; });
      d.expect_identical(op);
    }
  }
}

// Capacity shrink/grow mode: machine capacity changes mid-run, modelled
// exactly the way ConservativeBackfillDispatch::on_capacity_change does —
// an outage is one open-ended allocation placed at `now` when nodes go
// down and released (from `now`, past prefix kept as history) when they
// come back, with every live reservation lifted under a BulkUpdate and
// re-placed through earliest_fit at the new capacity. The reference
// profile sees the same plain calls and must agree after every step.
void run_capacity_fuzz(std::uint64_t seed, std::size_t ops) {
  constexpr int kTotal = 64;
  Differ d(kTotal);
  util::Rng rng(seed);
  std::vector<ActiveAllocation> active;
  Time now = 0;
  int down = 0;  // nodes currently out, held by the open-ended allocation

  for (std::size_t op = 0; op < ops; ++op) {
    const std::int64_t dice = rng.uniform_int(0, 99);
    if (dice < 40) {
      // Reserve within the surviving capacity (wider jobs would make
      // earliest_fit spin forever against the open-ended outage).
      const int nodes = static_cast<int>(rng.uniform_int(0, kTotal - down));
      const Duration dur = rng.uniform_int(1, 4000);
      const Time from = now + rng.uniform_int(0, 2000);
      const Time start = d.fast().earliest_fit(from, dur, nodes);
      ASSERT_EQ(start, d.ref().earliest_fit(from, dur, nodes)) << "op " << op;
      d.fast().allocate(start, dur, nodes);
      d.ref().allocate(start, dur, nodes);
      if (nodes > 0) active.push_back({start, dur, nodes});
    } else if (dice < 60 && !active.empty()) {
      // Early completion: return the tail.
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(active.size()) - 1));
      const ActiveAllocation a = active[pick];
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(pick));
      const Time release_from = std::max(a.start, now);
      if (a.end() > release_from) {
        d.fast().release(release_from, a.end() - release_from, a.nodes);
        d.ref().release(release_from, a.end() - release_from, a.nodes);
      }
    } else if (dice < 80) {
      // Capacity step. Lift everything still live, adjust the outage
      // allocation, re-place what still fits (a window wider than the new
      // capacity is parked — dropped here; the scheduler keeps it queued).
      const int new_down = static_cast<int>(rng.uniform_int(0, kTotal / 2));
      if (new_down == down) continue;
      std::vector<ActiveAllocation> lifted;
      {
        Profile::BulkUpdate bulk(d.fast());
        for (const ActiveAllocation& a : active) {
          const Time release_from = std::max(a.start, now);
          if (a.end() <= release_from) continue;
          const Duration tail = a.end() - release_from;
          d.fast().release(release_from, tail, a.nodes);
          d.ref().release(release_from, tail, a.nodes);
          lifted.push_back({release_from, tail, a.nodes});
        }
        if (new_down > down) {
          d.fast().allocate(now, kTimeInfinity, new_down - down);
          d.ref().allocate(now, kTimeInfinity, new_down - down);
        } else {
          d.fast().release(now, kTimeInfinity, down - new_down);
          d.ref().release(now, kTimeInfinity, down - new_down);
        }
        down = new_down;
      }
      d.expect_identical(op);
      if (::testing::Test::HasFatalFailure()) return;
      active.clear();
      for (const ActiveAllocation& a : lifted) {
        if (a.nodes > kTotal - down) continue;  // parked at this capacity
        const Time start = d.fast().earliest_fit(now, a.duration, a.nodes);
        ASSERT_EQ(start, d.ref().earliest_fit(now, a.duration, a.nodes))
            << "op " << op;
        d.fast().allocate(start, a.duration, a.nodes);
        d.ref().allocate(start, a.duration, a.nodes);
        active.push_back({start, a.duration, a.nodes});
      }
    } else if (dice < 88) {
      now += rng.uniform_int(0, 1500);
      d.fast().compact(now);
      d.ref().compact(now);
      std::erase_if(active,
                    [&](const ActiveAllocation& a) { return a.end() <= now; });
    } else {
      const Time from = now + rng.uniform_int(0, 8000);
      const Duration dur = rng.uniform_int(1, 5000);
      const int nodes = static_cast<int>(rng.uniform_int(0, kTotal - down));
      d.expect_queries_agree(op, from, dur, nodes);
    }
    d.expect_identical(op);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// --- screening queries vs a brute-force scan --------------------------------

/// Brute-force oracle for `profile + overlay`: the overlay is tracked as the
/// plain list of spans it sums, and fits are checked at every breakpoint.
struct MergedView {
  const Profile* profile;
  std::vector<CapacitySpan> spans;

  int at(Time t) const {
    int c = profile->capacity_at(t);
    for (const CapacitySpan& s : spans) {
      if (s.start <= t && t < s.end) c += s.nodes;
    }
    return c;
  }

  /// Every instant where the merged capacity may change, ascending.
  std::vector<Time> edges() const {
    std::vector<Time> e;
    std::istringstream dump(profile->dump());
    std::string bp;
    while (dump >> bp) e.push_back(std::stoll(bp.substr(0, bp.find(':'))));
    for (const CapacitySpan& s : spans) {
      e.push_back(s.start);
      e.push_back(s.end);
    }
    std::sort(e.begin(), e.end());
    e.erase(std::unique(e.begin(), e.end()), e.end());
    return e;
  }

  bool fits(Time t, Duration d, int nodes, const std::vector<Time>& e) const {
    if (at(t) < nodes) return false;
    for (Time x : e) {
      if (x > t && x - t < d && at(x) < nodes) return false;
    }
    return true;
  }

  /// Earliest fit starting in [from, before), else `before`.
  Time earliest_fit(Time from, Time before, Duration d, int nodes) const {
    const std::vector<Time> e = edges();
    if (from < before && fits(from, d, nodes, e)) return from;
    for (Time x : e) {
      if (x <= from) continue;
      if (x >= before) break;
      if (fits(x, d, nodes, e)) return x;
    }
    return before;
  }
};

/// Fuzz Profile::earliest_fit_in_growth and the unbounded
/// Profile::earliest_fit_with against MergedView. Each trial builds a base
/// `profile + overlay`, takes a job's earliest fit there as its certified
/// start (the "no earlier fit" certificate the growth query relies on),
/// then perturbs the view with random growth — releases in the profile,
/// spans added to the overlay — and shrinks — new allocations, built spans
/// retired from the overlay by the indices build() reported — recording
/// the growth in its own overlay.
void run_growth_fit_fuzz(std::uint64_t seed, std::size_t trials) {
  constexpr int kTotal = 32;
  constexpr std::size_t kUnbounded = static_cast<std::size_t>(-1);
  util::Rng rng(seed);
  std::size_t moved = 0;  // trials whose growth opened an earlier fit
  const auto random_span = [&](Time lo) {
    const Time start = lo + rng.uniform_int(0, 3000);
    return CapacitySpan{start, start + rng.uniform_int(1, 600),
                        static_cast<int>(rng.uniform_int(1, kTotal / 2))};
  };
  for (std::size_t trial = 0; trial < trials; ++trial) {
    Profile profile(kTotal);
    std::vector<CapacitySpan> allocated;
    const std::int64_t allocations = rng.uniform_int(20, 80);
    for (std::int64_t k = 0; k < allocations; ++k) {
      const CapacitySpan s = random_span(0);
      if (profile.earliest_fit(s.start, s.end - s.start, s.nodes) == s.start) {
        profile.allocate(s.start, s.end - s.start, s.nodes);
        allocated.push_back(s);
      }
    }
    // The overlay lifts some allocations, as a replan window would, and
    // sometimes adds capacity that never ends.
    MergedView view{&profile, {}};
    for (std::size_t k = 0; k < allocated.size();) {
      if (rng.bernoulli(0.4)) {
        view.spans.push_back(allocated[k]);
        allocated.erase(allocated.begin() + static_cast<std::ptrdiff_t>(k));
      } else {
        ++k;
      }
    }
    if (rng.bernoulli(0.2)) {
      view.spans.push_back({rng.uniform_int(0, 3000), kTimeInfinity,
                            static_cast<int>(rng.uniform_int(1, 4))});
    }
    const std::vector<CapacitySpan> built = view.spans;
    CapacityOverlay extra;
    std::vector<CapacityOverlay::SpanIndex> index;
    extra.build(built, &index);
    // Each reported index holds the span's start and end, and an
    // open-ended span reaches past the last breakpoint.
    ASSERT_EQ(index.size(), built.size());
    for (std::size_t k = 0; k < built.size(); ++k) {
      ASSERT_LT(index[k].lo, extra.breakpoints()) << "trial " << trial;
      EXPECT_EQ(extra.breakpoint(index[k].lo), built[k].start);
      if (built[k].end == kTimeInfinity) {
        EXPECT_EQ(index[k].hi, extra.breakpoints()) << "trial " << trial;
      } else {
        ASSERT_LT(index[k].hi, extra.breakpoints()) << "trial " << trial;
        EXPECT_EQ(extra.breakpoint(index[k].hi), built[k].end);
      }
    }

    const Time from = rng.uniform_int(0, 1500);
    const Duration d = rng.uniform_int(1, 500);
    const int nodes = static_cast<int>(rng.uniform_int(1, kTotal));
    Profile::Cursor cursor;
    const Time certified = view.earliest_fit(from, kTimeInfinity, d, nodes);
    ASSERT_EQ(profile.earliest_fit_with(extra, cursor, from, d, nodes,
                                        kTimeInfinity, kUnbounded),
              certified)
        << "trial " << trial;

    std::vector<CapacitySpan> growth;
    // Built spans still in the overlay, and spans to add once the changes
    // are drawn: add() inserts breakpoints, which shifts the indices
    // build() reported, so every retire comes first.
    std::vector<std::size_t> live(built.size());
    for (std::size_t k = 0; k < live.size(); ++k) live[k] = k;
    std::vector<CapacitySpan> added;
    const std::int64_t changes = rng.uniform_int(1, 8);
    for (std::int64_t k = 0; k < changes; ++k) {
      const std::int64_t dice = rng.uniform_int(0, 5);
      if (dice <= 1 && !allocated.empty()) {
        // Early completion: release an allocation's tail.
        const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(allocated.size()) - 1));
        const CapacitySpan a = allocated[pick];
        allocated.erase(allocated.begin() + static_cast<std::ptrdiff_t>(pick));
        const Time tail = rng.uniform_int(a.start, a.end - 1);
        profile.release(tail, a.end - tail, a.nodes);
        growth.push_back({tail, a.end, a.nodes});
      } else if (dice <= 3) {
        const CapacitySpan s = random_span(0);
        added.push_back(s);
        growth.push_back(s);
      } else if (dice == 4) {
        const CapacitySpan s = random_span(0);
        if (profile.earliest_fit(s.start, s.end - s.start, s.nodes) ==
            s.start) {
          profile.allocate(s.start, s.end - s.start, s.nodes);
          allocated.push_back(s);
        }
      } else if (!live.empty()) {
        const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(live.size()) - 1));
        extra.retire(index[live[pick]], built[live[pick]].nodes);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    }
    view.spans.clear();
    for (std::size_t k : live) view.spans.push_back(built[k]);
    for (const CapacitySpan& s : added) {
      extra.add(s.start, s.end, s.nodes);
      view.spans.push_back(s);
    }
    // Growth overlays reach the query built in one batch or grown span by
    // span (add() inserts the breakpoints build() would have made).
    CapacityOverlay grown;
    if (rng.bernoulli(0.5)) {
      grown.build(growth);
    } else {
      for (const CapacitySpan& g : growth) grown.add(g.start, g.end, g.nodes);
    }

    const Time expected = view.earliest_fit(from, certified, d, nodes);
    if (expected < certified) ++moved;
    ASSERT_EQ(profile.earliest_fit_in_growth(extra, grown, from, certified, d,
                                             nodes, kUnbounded),
              expected)
        << "trial " << trial << " from=" << from << " certified=" << certified
        << " d=" << d << " nodes=" << nodes;
    // A step budget only ever turns the answer into "unknown".
    const std::size_t budget =
        static_cast<std::size_t>(rng.uniform_int(0, 12));
    const Time budgeted = profile.earliest_fit_in_growth(
        extra, grown, from, certified, d, nodes, budget);
    ASSERT_TRUE(budgeted == expected || budgeted == kTimeInfinity)
        << "trial " << trial;

    // The detached re-screen: unbounded search from the old start.
    const Time resumed = view.earliest_fit(certified, kTimeInfinity, d, nodes);
    ASSERT_EQ(profile.earliest_fit_with(extra, cursor, certified, d, nodes,
                                        kTimeInfinity, kUnbounded),
              resumed)
        << "trial " << trial;
    const Time resumed_budgeted = profile.earliest_fit_with(
        extra, cursor, certified, d, nodes, kTimeInfinity, budget);
    ASSERT_TRUE(resumed_budgeted == resumed ||
                resumed_budgeted == kTimeInfinity)
        << "trial " << trial;
  }
  // Both verdicts must be well represented for the comparison to bite.
  EXPECT_GT(moved, trials / 10);
  EXPECT_LT(moved, trials - trials / 10);
}

TEST(ProfileDifferential, GrowthConfinedFitMatchesBruteForceSeed31) {
  run_growth_fit_fuzz(31, 3000);
}
TEST(ProfileDifferential, GrowthConfinedFitMatchesBruteForceSeed32) {
  run_growth_fit_fuzz(32, 3000);
}

TEST(ProfileDifferential, SchedulerShapedOpsSeed1) { run_fuzz(1, 10'000); }
TEST(ProfileDifferential, SchedulerShapedOpsSeed2) { run_fuzz(2, 10'000); }
TEST(ProfileDifferential, SchedulerShapedOpsSeed3) { run_fuzz(3, 10'000); }
TEST(ProfileDifferential, SchedulerShapedOpsSeed1999) { run_fuzz(1999, 10'000); }

TEST(ProfileDifferential, InPlaceMutationMixSeed7) {
  run_in_place_fuzz(7, 10'000);
}
TEST(ProfileDifferential, InPlaceMutationMixSeed8) {
  run_in_place_fuzz(8, 10'000);
}

TEST(ProfileDifferential, BulkUpdateBatchModeSeed11) { run_bulk_fuzz(11, 10'000); }
TEST(ProfileDifferential, BulkUpdateBatchModeSeed12) { run_bulk_fuzz(12, 10'000); }

TEST(ProfileDifferential, CapacityShrinkGrowSeed21) {
  run_capacity_fuzz(21, 10'000);
}
TEST(ProfileDifferential, CapacityShrinkGrowSeed22) {
  run_capacity_fuzz(22, 10'000);
}

TEST(ProfileDifferential, DenseSmallMachineStressesMerging) {
  // A 3-node machine forces constant breakpoint merging/splitting at tiny
  // capacities, where off-by-one merge bugs would show first.
  Differ d(3);
  util::Rng rng(42);
  std::vector<ActiveAllocation> active;
  for (std::size_t op = 0; op < 10'000; ++op) {
    const int nodes = static_cast<int>(rng.uniform_int(0, 3));
    const Duration dur = rng.uniform_int(1, 30);
    const Time from = rng.uniform_int(0, 200);
    if (rng.bernoulli(0.5) || active.empty()) {
      const Time start = d.fast().earliest_fit(from, dur, nodes);
      ASSERT_EQ(start, d.ref().earliest_fit(from, dur, nodes)) << "op " << op;
      d.fast().allocate(start, dur, nodes);
      d.ref().allocate(start, dur, nodes);
      if (nodes > 0) active.push_back({start, dur, nodes});
    } else {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(active.size()) - 1));
      const ActiveAllocation a = active[pick];
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(pick));
      d.fast().release(a.start, a.duration, a.nodes);
      d.ref().release(a.start, a.duration, a.nodes);
    }
    d.expect_identical(op);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace jsched::sim
