// Differential witness for conservative-backfill incremental compression:
// the screened/certified replan path must produce schedules bit-identical
// to the scratch lift-everything reference (scratch_replan = true, the
// executable specification) on randomized scheduler-shaped event
// sequences, across the parameter boundaries that select between partial,
// full and elided compression.
#include "core/conservative_backfill.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/factory.h"
#include "core/list_scheduler.h"
#include "core/ordering.h"
#include "sim/simulator.h"
#include "test_support.h"

namespace jsched::core {
namespace {

using test::make_job;

AlgorithmSpec cons_spec(const ConservativeParams& p,
                        OrderKind order = OrderKind::kFcfs) {
  AlgorithmSpec s;
  s.order = order;
  s.dispatch = DispatchKind::kConservative;
  s.conservative = p;
  return s;
}

/// Random workload shaped like real scheduler input: bursty arrivals,
/// width skewed narrow with occasional near-machine jobs, runtimes over
/// three orders of magnitude, and a mix of exact estimates (on-time
/// completions exercise replan elision) and over-estimates (early
/// completions exercise compression).
workload::Workload random_workload(std::uint64_t seed, std::size_t jobs,
                                   int machine_nodes) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::vector<Job> js;
  js.reserve(jobs);
  Time t = 0;
  for (std::size_t i = 0; i < jobs; ++i) {
    // Bursts: 1/4 of jobs arrive with zero gap.
    if (uni(rng) > 0.25) t += static_cast<Time>(uni(rng) * 90.0);
    const int nodes =
        1 + static_cast<int>((machine_nodes - 1) * std::pow(uni(rng), 3.0));
    const auto runtime = static_cast<Duration>(1.0 + uni(rng) * uni(rng) * 2400.0);
    const Duration estimate =
        uni(rng) < 0.3 ? runtime
                       : static_cast<Duration>(
                             static_cast<double>(runtime) * (1.0 + 3.0 * uni(rng)));
    js.push_back(make_job(t, nodes, runtime, estimate));
  }
  return test::make_workload(std::move(js));
}

/// Replan accounting of one FCFS+CONS simulation of `w`.
ConservativeBackfillDispatch::ReplanStats run_stats(
    const workload::Workload& w, int nodes, const ConservativeParams& p) {
  sim::Machine m;
  m.nodes = nodes;
  auto dp = std::make_unique<ConservativeBackfillDispatch>(p);
  auto* d = dp.get();
  ListScheduler sched(std::make_unique<FcfsOrder>(), std::move(dp));
  (void)sim::simulate(m, sched, w);
  return d->replan_stats();
}

/// Run the workload twice — incremental screening vs the scratch
/// reference — and require bit-identical schedules (fingerprint witness).
void expect_matches_scratch(const workload::Workload& w, int nodes,
                            ConservativeParams p, const std::string& label,
                            OrderKind order = OrderKind::kFcfs) {
  p.scratch_replan = false;
  const std::uint64_t incremental = test::run_fingerprint(cons_spec(p, order), w, nodes);
  p.scratch_replan = true;
  const std::uint64_t scratch = test::run_fingerprint(cons_spec(p, order), w, nodes);
  EXPECT_EQ(incremental, scratch) << label;
}

TEST(ConservativeDifferential, RandomizedSequencesMatchScratch) {
  // Every config sees > 10k scheduler events: 4 seeds x 1500 jobs, each
  // job contributing a submit + completion (plus starts and reservation
  // wakeups). The 32-node machine keeps a deep backlog, so compression
  // runs constantly — each sequence drives thousands of replans through
  // the screen/certificate/fallback paths.
  struct Config {
    const char* name;
    ConservativeParams p;
  };
  std::vector<Config> configs;
  configs.push_back({"default", {}});
  {
    ConservativeParams p;
    p.full_compression = true;
    configs.push_back({"full-compression", p});
  }
  {
    ConservativeParams p;
    p.replan_prefix = 1;
    configs.push_back({"prefix-1", p});
  }
  {
    ConservativeParams p;
    p.replan_prefix = 3;
    p.reservation_depth = 16;  // deep queue beyond the reserved set
    configs.push_back({"prefix-3-depth-16", p});
  }
  {
    ConservativeParams p;
    p.full_compression = true;
    p.compression_queue_limit = 4;  // gate flips mid-run as the queue breathes
    configs.push_back({"full-gated-4", p});
  }

  for (const Config& c : configs) {
    for (std::uint64_t seed : {11u, 23u, 37u, 59u}) {
      const workload::Workload w = random_workload(seed, 1500, 32);
      expect_matches_scratch(
          w, 32, c.p, std::string(c.name) + " seed " + std::to_string(seed));
    }
  }
}

TEST(ConservativeDifferential, ReorderingOrdersMatchScratch) {
  // SMART/PSRS orders deliver on_reorder (wholesale re-plans that
  // invalidate screening certificates) interleaved with compression; the
  // incremental path must survive the certificate resets exactly.
  const workload::Workload w = random_workload(101, 1200, 32);
  for (OrderKind order : {OrderKind::kSmartFfia, OrderKind::kPsrs}) {
    ConservativeParams p;
    expect_matches_scratch(w, 32, p, "reordering", order);
    p.full_compression = true;
    expect_matches_scratch(w, 32, p, "reordering full", order);
  }
}

TEST(ConservativeDifferential, CertificatesActuallyEngage) {
  // The fast path must not silently fall back to walking everything: on a
  // deep-backlog run most reuses should be certificate hits and a healthy
  // share of replans should elide or keep the whole window.
  const workload::Workload w = random_workload(7, 2500, 16);
  const auto st = run_stats(w, 16, ConservativeParams{});
  EXPECT_GT(st.replans, 100u);
  EXPECT_GT(st.reused, st.replaced);
  EXPECT_GT(st.certified, 0u);
  EXPECT_LE(st.certified, st.reused);  // certified is a subset of reused
  // Identical plans at every replan imply identical moves: the in-place
  // path moves exactly the reservations the scratch replay moves.
  ConservativeParams scratch;
  scratch.scratch_replan = true;
  EXPECT_EQ(st.moved, run_stats(w, 16, scratch).moved);
}

// --- in-place moves, long walks and the overdue hand-off --------------------

TEST(ConservativeDifferential, MoverLandingOnALaterSlotDetachesIt) {
  // Six nodes. X, R and A start at t=0; the queue plans W (full machine)
  // at 300 behind R, B at [60, 210) behind X, and backfills C into
  // [100, 130) where A's estimate ends. A finishes at t=10, 90 s early:
  // B moves to [10, 160), over C's slot, so C is detached (its slot
  // released under B) and re-placed when its own position resolves — at
  // 60, where X ends.
  const workload::Workload w = test::make_workload({
      make_job(0, 2, 60, 60),    // X
      make_job(0, 2, 300, 300),  // R
      make_job(0, 2, 10, 100),   // A: early completion at t=10
      make_job(0, 6, 50, 50),    // W
      make_job(0, 2, 150, 150),  // B
      make_job(0, 2, 30, 30),    // C
  });
  const ConservativeParams p;
  const auto st = run_stats(w, 6, p);
  EXPECT_EQ(st.detached, 1u);
  EXPECT_EQ(st.moved, 2u);
  EXPECT_EQ(st.fallbacks, 0u);
  const sim::Schedule s = test::run(cons_spec(p), w, 6);
  EXPECT_EQ(s[4].start, 10);  // B
  EXPECT_EQ(s[5].start, 60);  // C
  expect_matches_scratch(w, 6, p, "detach");
}

TEST(ConservativeDifferential, LongScreenWalkMatchesScratch) {
  // A staircase of one-node jobs ending one second apart fills the
  // machine, so the full-machine job W is planned behind thousands of
  // breakpoints. The first replan (job 0 ends 500 s early) carries no
  // certificates, so resolving W walks from `now` across the whole
  // staircase to W's own slot, and the three one-node jobs behind W move
  // into the hole, all without handing the window to scratch re-placement.
  constexpr int kStairs = 9000;
  std::vector<Job> jobs;
  jobs.push_back(make_job(0, 1, 500, 1000));
  for (int i = 1; i < kStairs; ++i) jobs.push_back(make_job(0, 1, 1000 + i));
  jobs.push_back(make_job(0, kStairs, 10));  // W
  for (int i = 0; i < 3; ++i) jobs.push_back(make_job(0, 1, 100));
  const workload::Workload w = test::make_workload(std::move(jobs));
  const ConservativeParams p;
  const auto st = run_stats(w, kStairs, p);
  EXPECT_EQ(st.fallbacks, 0u);
  EXPECT_EQ(st.moved, 3u);
  expect_matches_scratch(w, kStairs, p, "long walk");
}

TEST(ConservativeDifferential, OverdueReservationHandsTheRestToScratch) {
  // A reservation falls due at an instant the dispatcher is never shown.
  // On four nodes J0 (2 nodes, estimate 200) and J1 (2 nodes, estimate
  // 100) start at 0; J2 (4 nodes) is reserved at 200 and J3 (2 nodes) at
  // 100. No select comes at 100, and J0 completes 50 s early at 150. The
  // replan moves J2 to 150, then finds J3 overdue and hands the rest of
  // the window to scratch re-placement, which puts J3 at 200: where the
  // scratch reference puts both.
  std::vector<Job> jobs = {make_job(0, 2, 150, 200), make_job(0, 2, 100, 100),
                           make_job(0, 4, 50, 50), make_job(0, 2, 50, 50)};
  JobStore store;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = static_cast<JobId>(i);
    store.put(jobs[i]);
  }
  sim::Machine m;
  m.nodes = 4;
  const auto drive = [&](const ConservativeParams& p) {
    auto d = std::make_unique<ConservativeBackfillDispatch>(p);
    d->reset(m, store);
    const std::vector<JobId> queue = {0, 1, 2, 3};
    for (JobId id : queue) d->on_enqueue(id, 0);
    EXPECT_EQ(d->reservation_of(2), 200);
    EXPECT_EQ(d->reservation_of(3), 100);
    std::vector<JobId> starts;
    d->select(0, 4, queue, {}, starts);
    EXPECT_EQ(starts, (std::vector<JobId>{0, 1}));
    for (JobId id : starts) d->on_start(id, 0);
    d->on_complete(0, 150, 200, {2, 3});
    return d;
  };
  const auto incremental = drive(ConservativeParams{});
  ConservativeParams scratch;
  scratch.scratch_replan = true;
  const auto reference = drive(scratch);
  EXPECT_EQ(incremental->reservation_of(2), 150);
  EXPECT_EQ(incremental->reservation_of(3), 200);
  EXPECT_EQ(reference->reservation_of(2), 150);
  EXPECT_EQ(reference->reservation_of(3), 200);
  EXPECT_EQ(incremental->profile().dump(), reference->profile().dump());
  EXPECT_EQ(incremental->replan_stats().fallbacks, 1u);
  EXPECT_EQ(incremental->replan_stats().moved,
            reference->replan_stats().moved);
}

// --- replan_prefix boundary semantics ---------------------------------------

/// Deep-queue workload whose reserved set stays around `depth` jobs.
workload::Workload boundary_workload() { return random_workload(4242, 800, 8); }

TEST(ConservativeDifferential, PrefixShorterThanQueueMatchesScratch) {
  ConservativeParams p;
  p.replan_prefix = 2;  // far below the backlog depth
  expect_matches_scratch(boundary_workload(), 8, p, "prefix shorter");
}

TEST(ConservativeDifferential, PrefixEqualToQueueMatchesScratch) {
  ConservativeParams p;
  p.reservation_depth = 6;
  p.replan_prefix = 6;  // window == reserved set exactly
  expect_matches_scratch(boundary_workload(), 8, p, "prefix equal");
}

TEST(ConservativeDifferential, PrefixLongerThanQueueEqualsFullCompression) {
  // A prefix that always covers the whole reserved set is full compression
  // by definition — same schedule, bit for bit. (The paper's exact
  // conservative compression, reached through the prefix path.)
  const workload::Workload w = boundary_workload();
  ConservativeParams prefix;
  prefix.reservation_depth = 12;
  prefix.replan_prefix = 4096;  // limit >= reserved set on every replan
  ConservativeParams full;
  full.reservation_depth = 12;
  full.full_compression = true;
  full.compression_queue_limit = 4096;  // never gated
  EXPECT_EQ(test::run_fingerprint(cons_spec(prefix), w, 8),
            test::run_fingerprint(cons_spec(full), w, 8));
  // And both match their own scratch reference.
  expect_matches_scratch(w, 8, prefix, "prefix longer");
  expect_matches_scratch(w, 8, full, "full ungated");
}

// --- constructor validation (parameter audit) -------------------------------

TEST(ConservativeDifferential, ConstructionRejectsZeroCompressionQueueLimit) {
  ConservativeParams p;
  p.full_compression = true;
  p.compression_queue_limit = 0;  // would gate full compression to never run
  EXPECT_THROW(ConservativeBackfillDispatch{p}, std::invalid_argument);
}

TEST(ConservativeDifferential, ConstructionRejectsNegativeReplanPrefix) {
  ConservativeParams p;
  // A caller passing -1 through the unsigned field wraps to the top of
  // the size_t range; the constructor must refuse the wrapped half.
  p.replan_prefix = static_cast<std::size_t>(-1);
  EXPECT_THROW(ConservativeBackfillDispatch{p}, std::invalid_argument);
}

TEST(ConservativeDifferential, ConstructionAcceptsWorkingBoundaries) {
  ConservativeParams p;
  p.replan_prefix = 0;  // compression disabled — valid (wakeup-path tests)
  p.compression_queue_limit = 1;
  EXPECT_NO_THROW(ConservativeBackfillDispatch{p});
}

// --- partial-compression debt (satellite audit) -----------------------------

TEST(ConservativeDifferential, PartialReplanKeepsDebt) {
  // A prefix replan deliberately leaves reservations beyond the window
  // planned against the pre-completion profile, so the debt flag must
  // survive it: every later completion — even an on-time one — has to
  // re-screen the window until a replan covers the whole reserved set.
  // Full-machine jobs serialize the schedule, making the accounting exact:
  //   j0 finishes 50s early; j1..j5 run exactly to their estimates.
  const workload::Workload w = test::make_workload({
      make_job(0, 4, 50, 100),  // early completion -> compression debt
      make_job(0, 4, 100, 100), make_job(0, 4, 100, 100),
      make_job(0, 4, 100, 100), make_job(0, 4, 100, 100),
      make_job(0, 4, 100, 100),
  });
  // Partial coverage (prefix 2 < 5 reserved): the debt persists through
  // the on-time completions at t=150 and t=250; it clears only at t=350
  // when the shrunken queue (2 jobs) fits the prefix. Replans at
  // t=50,150,250,350; debt-free arrivals (elisions) at t=50 (before the
  // release), t=450 and t=550.
  ConservativeParams partial;
  partial.replan_prefix = 2;
  const auto ps = run_stats(w, 4, partial);
  EXPECT_EQ(ps.completions, 6u);
  EXPECT_EQ(ps.replans, 4u);
  EXPECT_EQ(ps.replans_elided, 3u);

  // Full coverage clears the debt at t=50; every on-time completion after
  // that is elided. The contrast pins that the partial path's extra
  // replans come from the preserved debt, not from extra capacity.
  ConservativeParams full;
  full.full_compression = true;
  const auto fs = run_stats(w, 4, full);
  EXPECT_EQ(fs.completions, 6u);
  EXPECT_EQ(fs.replans, 1u);
  EXPECT_EQ(fs.replans_elided, 6u);
}

}  // namespace
}  // namespace jsched::core
