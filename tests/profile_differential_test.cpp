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

// Replan-shaped bursts: lift several allocations, with queries fired
// between the releases, then re-place them through earliest_fit,
// mirroring ConservativeBackfillDispatch::replace_from. Every query must
// see exactly the reference's answers.
void run_burst_fuzz(std::uint64_t seed, std::size_t ops) {
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

    // Replan-shaped burst: release several windows.
    const std::size_t burst = std::min<std::size_t>(
        active.size(), static_cast<std::size_t>(rng.uniform_int(0, 6)));
    std::vector<ActiveAllocation> lifted;
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
        // A query in the middle of the burst repairs the tree on demand.
        d.expect_queries_agree(op, now + rng.uniform_int(0, 4000),
                               rng.uniform_int(1, 3000),
                               static_cast<int>(rng.uniform_int(0, kTotal)));
      }
    }
    d.expect_identical(op);
    if (::testing::Test::HasFatalFailure()) return;

    // Re-place the lifted windows from `now`.
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
// come back, with every live reservation lifted and re-placed through
// earliest_fit at the new capacity. The reference profile sees the same
// calls and must agree after every step.
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

// Deep-replan mode, shaped like conservative backfilling behind a deep
// queue: a backlog of short windows, one every kGap from just past the
// near ones, holds the profile above 2,000 live breakpoints, and most
// edits land among the first ~64, near `now`, where a structural edit
// shifts the head into the dead prefix instead of shifting the backlog.
// As time advances the backlog's front windows are retired and new ones
// join its tail, so the dead prefix grows until compact() splices it out,
// several times per run. Some steps move a window (release, then allocate
// at a fit found beforehand, with no query between), some lift and
// re-place a burst, and some edit deep in the backlog, so head shifts,
// rewritten values and a shifted suffix meet in one repair.
// dump() is compared after every mutation, and every step ends with an
// earliest_fit against the reference: a leaf the repair missed shows as a
// wrong fit.
void run_deep_replan_fuzz(std::uint64_t seed, std::size_t ops) {
  constexpr int kTotal = 64;
  constexpr Time kGap = 40;  // backlog windows are [t, t + 5), one per kGap
  constexpr std::size_t kDepth = 2100;  // live breakpoints the backlog keeps
  Differ d(kTotal);
  util::Rng rng(seed);
  std::size_t op = 0;
  const auto allocate = [&](Time start, Duration dur, int nodes) {
    d.fast().allocate(start, dur, nodes);
    d.ref().allocate(start, dur, nodes);
    d.expect_identical(op);
  };
  const auto release = [&](Time start, Duration dur, int nodes) {
    d.fast().release(start, dur, nodes);
    d.ref().release(start, dur, nodes);
    d.expect_identical(op);
  };
  Time now = 0;
  Time tail = 1'000;  // start of the next backlog window
  const auto grow_backlog = [&] {
    while (d.fast().breakpoints() < kDepth) {
      allocate(tail, 5, static_cast<int>(rng.uniform_int(1, kTotal / 2)));
      tail += kGap;
    }
  };
  grow_backlog();

  std::vector<ActiveAllocation> near;  // windows near `now`
  std::vector<ActiveAllocation> deep;  // slices between backlog windows
  // The unused rest of an allocation, returned as an early completion
  // returns it.
  const auto lift = [&](const ActiveAllocation& a) {
    const Time from = std::max(a.start, now);
    if (a.end() > from) release(from, a.end() - from, a.nodes);
    return ActiveAllocation{from, a.end() - from, a.nodes};
  };
  const auto take = [&](std::vector<ActiveAllocation>& from) {
    const std::size_t pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(from.size()) - 1));
    const ActiveAllocation a = from[pick];
    from.erase(from.begin() + static_cast<std::ptrdiff_t>(pick));
    return a;
  };
  // Earliest fit from `from`, checked against the reference.
  const auto fit = [&](Time from, Duration dur, int nodes) {
    const Time at = d.fast().earliest_fit(from, dur, nodes);
    EXPECT_EQ(at, d.ref().earliest_fit(from, dur, nodes)) << "op " << op;
    return at;
  };

  std::size_t splices = 0;
  const Profile::Upkeep first = d.fast().upkeep();
  for (; op < ops; ++op) {
    const std::int64_t dice = rng.uniform_int(0, 99);
    if (dice < 30 && near.size() < 24) {
      // Reserve near `now`.
      const int nodes = static_cast<int>(rng.uniform_int(1, kTotal / 2));
      const Duration dur = rng.uniform_int(1, 400);
      const Time at = fit(now + rng.uniform_int(0, 300), dur, nodes);
      allocate(at, dur, nodes);
      near.push_back({at, dur, nodes});
    } else if (dice < 45 && !near.empty()) {
      lift(take(near));  // early completion
    } else if (dice < 60 && !near.empty()) {
      // Move a window as a replan does: find its earliest fit from `now`
      // while it is still allocated (so the fit holds without it), then
      // release and allocate with no query between.
      const ActiveAllocation a = take(near);
      if (a.end() <= now) continue;
      const Duration dur = a.end() - std::max(a.start, now);
      const Time at = fit(now, dur, a.nodes);
      lift(a);
      allocate(at, dur, a.nodes);
      near.push_back({at, dur, a.nodes});
    } else if (dice < 66) {
      // Lift a burst, mostly near, then re-place it.
      std::vector<ActiveAllocation> lifted;
      const std::int64_t burst = rng.uniform_int(1, 6);
      for (std::int64_t k = 0; k < burst; ++k) {
        const bool from_deep =
            !deep.empty() && (near.empty() || rng.bernoulli(0.2));
        if (!from_deep && near.empty()) break;
        const ActiveAllocation a = take(from_deep ? deep : near);
        if (a.end() > now) lifted.push_back(lift(a));
      }
      for (const ActiveAllocation& a : lifted) {
        const Time at = fit(now, a.duration, a.nodes);
        allocate(at, a.duration, a.nodes);
        near.push_back({at, a.duration, a.nodes});
      }
    } else if (dice < 72) {
      // Edit deep in the backlog: a slice in the gap after a window of its
      // back half, or the release of one made earlier.
      if (!deep.empty() && rng.bernoulli(0.5)) {
        lift(take(deep));
      } else {
        const Time w = tail - kGap * rng.uniform_int(1, kDepth / 4);
        const ActiveAllocation a{w + 6, rng.uniform_int(1, 3),
                                 static_cast<int>(rng.uniform_int(1, kTotal))};
        if (fit(a.start, a.duration, a.nodes) == a.start) {
          allocate(a.start, a.duration, a.nodes);
          deep.push_back(a);
        }
      }
    } else {
      // Advance time: compact, forget windows wholly in the past, and
      // refill the backlog's tail.
      const std::uint64_t moved = d.fast().upkeep().slots_moved;
      now += rng.uniform_int(0, 90);
      d.fast().compact(now);
      d.ref().compact(now);
      d.expect_identical(op);
      // Only a splice moves slots here: every live one at once.
      if (d.fast().upkeep().slots_moved - moved >= d.fast().breakpoints()) {
        ++splices;
      }
      const auto past = [&](const ActiveAllocation& a) {
        return a.end() <= now;
      };
      std::erase_if(near, past);
      std::erase_if(deep, past);
      grow_backlog();
    }
    if (::testing::Test::HasFailure()) return;
    // One query per step, mostly near `now`, sometimes deep in the
    // backlog.
    const Time from = now + (rng.bernoulli(0.1)
                                 ? rng.uniform_int(0, tail - now)
                                 : rng.uniform_int(0, 400));
    d.expect_queries_agree(op, from, rng.uniform_int(1, 500),
                           static_cast<int>(rng.uniform_int(1, kTotal)));
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GE(splices, 2u);
  // Most edits land near the front, so on average an edit moves a small
  // fraction of what shifting the suffix would.
  const Profile::Upkeep& last = d.fast().upkeep();
  const std::uint64_t edits = last.structural_edits - first.structural_edits;
  const std::uint64_t moved = last.slots_moved - first.slots_moved;
  ASSERT_GT(edits, ops);
  EXPECT_LT(moved, edits * (kDepth / 16));
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
    const Time certified = view.earliest_fit(from, kTimeInfinity, d, nodes);
    ASSERT_EQ(profile.earliest_fit_with(extra, from, d, nodes, kTimeInfinity),
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
    ASSERT_EQ(
        profile.earliest_fit_in_growth(extra, grown, from, certified, d, nodes),
        expected)
        << "trial " << trial << " from=" << from << " certified=" << certified
        << " d=" << d << " nodes=" << nodes;

    // The detached re-screen: unbounded search from the old start.
    ASSERT_EQ(
        profile.earliest_fit_with(extra, certified, d, nodes, kTimeInfinity),
        view.earliest_fit(certified, kTimeInfinity, d, nodes))
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

TEST(ProfileDifferential, ReplanBurstSeed11) { run_burst_fuzz(11, 10'000); }
TEST(ProfileDifferential, ReplanBurstSeed12) { run_burst_fuzz(12, 10'000); }

TEST(ProfileDifferential, CapacityShrinkGrowSeed21) {
  run_capacity_fuzz(21, 10'000);
}
TEST(ProfileDifferential, CapacityShrinkGrowSeed22) {
  run_capacity_fuzz(22, 10'000);
}

TEST(ProfileDifferential, DeepReplanNearFrontSeed41) {
  run_deep_replan_fuzz(41, 10'000);
}
TEST(ProfileDifferential, DeepReplanNearFrontSeed42) {
  run_deep_replan_fuzz(42, 10'000);
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
