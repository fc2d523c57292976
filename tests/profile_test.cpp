#include "sim/profile.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

namespace jsched::sim {
namespace {

TEST(Profile, StartsAtFullCapacity) {
  Profile p(16);
  EXPECT_EQ(p.total_nodes(), 16);
  EXPECT_EQ(p.capacity_at(0), 16);
  EXPECT_EQ(p.capacity_at(1'000'000), 16);
}

TEST(Profile, RejectsNonPositiveCapacity) {
  EXPECT_THROW(Profile(0), std::invalid_argument);
}

TEST(Profile, AllocateCarvesWindow) {
  Profile p(10);
  p.allocate(100, 50, 4);
  EXPECT_EQ(p.capacity_at(99), 10);
  EXPECT_EQ(p.capacity_at(100), 6);
  EXPECT_EQ(p.capacity_at(149), 6);
  EXPECT_EQ(p.capacity_at(150), 10);
}

TEST(Profile, OverlappingAllocationsStack) {
  Profile p(10);
  p.allocate(0, 100, 3);
  p.allocate(50, 100, 4);
  EXPECT_EQ(p.capacity_at(25), 7);
  EXPECT_EQ(p.capacity_at(75), 3);
  EXPECT_EQ(p.capacity_at(125), 6);
  EXPECT_EQ(p.capacity_at(150), 10);
}

TEST(Profile, ReleaseUndoesAllocate) {
  Profile p(8);
  p.allocate(10, 20, 5);
  p.release(10, 20, 5);
  EXPECT_EQ(p.capacity_at(15), 8);
  EXPECT_EQ(p.breakpoints(), 1u);  // merged back to a flat line
}

TEST(Profile, PartialReleaseForEarlyCompletion) {
  Profile p(8);
  p.allocate(0, 100, 5);  // runs 0..100 by estimate
  p.release(40, 60, 5);   // actually finished at 40
  EXPECT_EQ(p.capacity_at(20), 3);
  EXPECT_EQ(p.capacity_at(40), 8);
}

TEST(Profile, FitsChecksWholeWindow) {
  // A window fits at its start exactly when the earliest fit from there
  // is that start.
  Profile p(10);
  p.allocate(50, 50, 8);
  EXPECT_EQ(p.earliest_fit(0, 50, 10), 0);     // ends exactly at the allocation
  EXPECT_NE(p.earliest_fit(0, 51, 3), 0);      // leaks one second into it
  EXPECT_EQ(p.earliest_fit(0, 51, 2), 0);      // narrow enough to coexist
  EXPECT_EQ(p.earliest_fit(100, 1000, 10), 100);
}

TEST(Profile, EarliestFitImmediate) {
  Profile p(10);
  EXPECT_EQ(p.earliest_fit(7, 100, 10), 7);
}

TEST(Profile, EarliestFitAfterBusyWindow) {
  Profile p(10);
  p.allocate(0, 100, 8);
  EXPECT_EQ(p.earliest_fit(0, 10, 2), 0);    // fits beside
  EXPECT_EQ(p.earliest_fit(0, 10, 3), 100);  // must wait
}

TEST(Profile, EarliestFitSkipsShortGap) {
  Profile p(10);
  p.allocate(0, 100, 8);
  p.allocate(120, 100, 8);
  // Gap [100,120) is 20 long; a 30-second job of 5 nodes must go after 220.
  EXPECT_EQ(p.earliest_fit(0, 30, 5), 220);
  // A 10-second job fits in the gap.
  EXPECT_EQ(p.earliest_fit(0, 10, 5), 100);
}

TEST(Profile, EarliestFitHonorsFromBound) {
  Profile p(10);
  EXPECT_EQ(p.earliest_fit(500, 10, 1), 500);
}

TEST(Profile, EarliestFitRejectsTooWide) {
  Profile p(10);
  EXPECT_THROW(p.earliest_fit(0, 10, 11), std::invalid_argument);
}

TEST(Profile, ReservationPackingScenario) {
  // Conservative backfilling pattern: running job + two reservations.
  Profile p(16);
  p.allocate(0, 100, 10);                      // running until estimate 100
  const Time r1 = p.earliest_fit(0, 50, 10);   // must wait for the runner
  EXPECT_EQ(r1, 100);
  p.allocate(r1, 50, 10);
  const Time r2 = p.earliest_fit(0, 200, 6);   // fits beside everything
  EXPECT_EQ(r2, 0);
  p.allocate(r2, 200, 6);
  // 4 nodes free nowhere before 150... check a wide follow-up.
  EXPECT_EQ(p.earliest_fit(0, 10, 16), 200);
}

TEST(Profile, CompactDropsHistory) {
  Profile p(8);
  p.allocate(0, 10, 4);
  p.allocate(20, 10, 4);
  p.allocate(100, 10, 4);
  p.compact(50);
  EXPECT_EQ(p.capacity_at(50), 8);
  EXPECT_EQ(p.capacity_at(105), 4);
  // Past is gone, future intact.
  EXPECT_LE(p.breakpoints(), 3u);
}

TEST(Profile, CompactAtBreakpointKeepsValue) {
  Profile p(8);
  p.allocate(10, 10, 3);
  p.compact(10);
  EXPECT_EQ(p.capacity_at(10), 5);
  EXPECT_EQ(p.capacity_at(20), 8);
}

TEST(Profile, BreakpointsMergeWhenAdjacentEqual) {
  Profile p(8);
  p.allocate(0, 10, 4);
  p.allocate(10, 10, 4);  // same depth, contiguous
  // Profile is 4 over [0,20): interior breakpoint at 10 should be merged.
  EXPECT_EQ(p.capacity_at(5), 4);
  EXPECT_EQ(p.capacity_at(15), 4);
  EXPECT_EQ(p.capacity_at(20), 8);
  EXPECT_LE(p.breakpoints(), 2u);
}

TEST(Profile, ZeroNodeAllocationIsNoop) {
  Profile p(8);
  p.allocate(0, 10, 0);
  EXPECT_EQ(p.capacity_at(5), 8);
}

TEST(Profile, CompactAtFirstBreakpointIsNoop) {
  // Regression: compact(now) with `now` exactly on the first breakpoint
  // used to erase and re-emplace the front entry even though nothing
  // changes; it must leave the profile untouched (and stay idempotent).
  Profile p(8);
  p.allocate(0, 10, 3);
  p.allocate(20, 10, 5);
  const std::string before = p.dump();
  p.compact(0);  // `now` == first breakpoint key
  EXPECT_EQ(p.dump(), before);
  p.compact(0);
  EXPECT_EQ(p.dump(), before);
  // Compacting to a later breakpoint re-keys once, then becomes a no-op.
  p.compact(20);
  const std::string at20 = p.dump();
  EXPECT_EQ(p.capacity_at(20), 3);
  p.compact(20);
  EXPECT_EQ(p.dump(), at20);
}

TEST(Profile, CompactInsideFirstSegmentKeepsFrontKey) {
  // `now` inside the first segment: nothing precedes it, so the front key
  // is preserved (same as the seed implementation). `now` earlier than
  // all breakpoints is an asserted precondition — simulation time never
  // flows backwards — documented on Profile::compact.
  Profile p(8);
  p.allocate(50, 10, 3);
  const std::string before = p.dump();
  p.compact(25);
  EXPECT_EQ(p.dump(), before);
  EXPECT_EQ(p.capacity_at(25), 8);
}

TEST(Profile, InfiniteDurationAllocationSaturates) {
  Profile p(8);
  p.allocate(100, kTimeInfinity, 5);  // open-ended: [100, infinity)
  EXPECT_EQ(p.capacity_at(99), 8);
  EXPECT_EQ(p.capacity_at(100), 3);
  EXPECT_EQ(p.capacity_at(kTimeInfinity - 1), 3);
  EXPECT_EQ(p.breakpoints(), 2u);  // no breakpoint materialized at infinity
  // A window ending exactly at the open-ended range still fits...
  EXPECT_EQ(p.earliest_fit(0, 100, 8), 0);
  // ...and jobs within the remaining capacity run anywhere...
  EXPECT_EQ(p.earliest_fit(0, 1000, 3), 0);
  // ...but a wide job can never run once capacity is held forever.
  EXPECT_THROW(p.earliest_fit(0, 101, 4), std::logic_error);
  // Releasing the open-ended range restores the flat line.
  p.release(100, kTimeInfinity, 5);
  EXPECT_EQ(p.breakpoints(), 1u);
  EXPECT_EQ(p.capacity_at(kTimeInfinity - 1), 8);
}

TEST(Profile, NearInfinityStartSaturatesInsteadOfOverflowing) {
  // start + duration would overflow past kTimeInfinity: the end clamps.
  Profile p(8);
  p.allocate(kTimeInfinity - 10, 100, 3);
  EXPECT_EQ(p.capacity_at(kTimeInfinity - 11), 8);
  EXPECT_EQ(p.capacity_at(kTimeInfinity - 10), 5);
  EXPECT_EQ(p.capacity_at(kTimeInfinity - 1), 5);
  EXPECT_EQ(p.breakpoints(), 2u);
  p.release(kTimeInfinity - 10, 100, 3);
  EXPECT_EQ(p.breakpoints(), 1u);
}

TEST(Profile, EarliestFitWindowReachingInfinitySaturates) {
  // The requested window itself saturates: [t, infinity) must be fully
  // free, so the fit lands after every finite allocation.
  Profile p(8);
  p.allocate(0, 100, 8);
  EXPECT_EQ(p.earliest_fit(0, kTimeInfinity, 8), 100);
  EXPECT_EQ(p.earliest_fit(100, kTimeInfinity, 8), 100);
  EXPECT_NE(p.earliest_fit(99, kTimeInfinity, 1), 99);
}

TEST(Profile, EditsNearTheFrontMoveOnlyTheHead) {
  // A deep profile: 16 short windows near the front, then 2,040 disjoint
  // far windows. Compacting past the first two windows leaves a few dead
  // slots in front of the live range, which edits near the front shift
  // into instead of shifting the ~4,000 breakpoints behind them.
  Profile p(64);
  for (Time t = 0; t < 160; t += 10) {
    p.allocate(t, 5, 1 + static_cast<int>(t / 10 % 7));
  }
  for (Time i = 0; i < 2040; ++i) {
    p.allocate(100'000 + 10 * i, 5, 1 + static_cast<int>(i % 7));
  }
  p.compact(20);
  ASSERT_GE(p.breakpoints(), 4096u);
  (void)p.earliest_fit(20, 1, 1);  // builds the tree once
  const Profile::Upkeep before = p.upkeep();

  // Allocate/release pairs within the first 16 breakpoints, each edit
  // followed by a query: every allocate inserts two breakpoints and its
  // release merges them away.
  constexpr int kPairs = 1000;
  for (int k = 0; k < kPairs; ++k) {
    const Time start = 21 + 10 * (k % 6);
    const int nodes = 1 + k % 8;
    p.allocate(start, 3, nodes);
    ASSERT_EQ(p.earliest_fit(20, 200, 64), 155);
    p.release(start, 3, nodes);
    ASSERT_EQ(p.earliest_fit(20, 200, 64), 155);
  }
  const Profile::Upkeep& after = p.upkeep();
  const std::uint64_t edits = after.structural_edits - before.structural_edits;
  const std::uint64_t moved = after.slots_moved - before.slots_moved;
  const std::uint64_t leaves = after.leaves_rewritten - before.leaves_rewritten;
  ASSERT_EQ(edits, 4u * kPairs);
  // Shifting the tail instead would move ~4,000 slots per edit, and
  // rebuild as many leaves per query.
  EXPECT_LE(moved, 32u * edits);
  EXPECT_LE(leaves, 2u * kPairs * 32);
}

}  // namespace
}  // namespace jsched::sim
