#include "core/conservative_backfill.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/factory.h"
#include "core/list_scheduler.h"
#include "fault/fault.h"
#include "sim/simulator.h"
#include "test_support.h"
#include "workload/ctc_model.h"
#include "workload/transforms.h"

namespace jsched::core {
namespace {

using test::make_job;

AlgorithmSpec cons(bool full_compression = false) {
  AlgorithmSpec s;
  s.dispatch = DispatchKind::kConservative;
  s.conservative.full_compression = full_compression;
  return s;
}

TEST(ConservativeBackfill, BackfillsWithoutDelayingAnyReservation) {
  const auto w = test::make_workload({
      make_job(0, 6, 100, 100),  // 0
      make_job(1, 4, 50, 50),    // 1: reserved at 100
      make_job(2, 2, 10, 10),    // 2: fits the hole, ends before 100
  });
  const auto s = test::run(cons(), w, 8);
  EXPECT_EQ(s[2].start, 2);
  EXPECT_EQ(s[1].start, 100);
}

TEST(ConservativeBackfill, ProtectsAllQueuedJobsNotJustHead) {
  // The defining difference to EASY (§5.2): only the head is protected by
  // EASY, every queued job by conservative. Job 3 fits the 2 idle nodes;
  // EASY lets it run on "extra" nodes (delaying job 2, which is not the
  // head), conservative refuses because job 2 holds a reservation at 100.
  const auto w = test::make_workload({
      make_job(0, 6, 100, 100),  // 0: leaves 2 idle until 100
      make_job(1, 4, 100, 100),  // 1: head, reserved at 100
      make_job(2, 4, 100, 100),  // 2: also reserved at 100 (4+4 = 8)
      make_job(3, 2, 250, 250),  // 3: long narrow backfill candidate
  });
  const auto easy_spec = [] {
    AlgorithmSpec s;
    s.dispatch = DispatchKind::kEasy;
    return s;
  }();
  const auto se = test::run(easy_spec, w, 8);
  const auto sc = test::run(cons(), w, 8);

  // EASY: job 3 backfills at t=3 (head's extra nodes cover it), so job 2
  // cannot start before job 1 completes at 200.
  EXPECT_EQ(se[3].start, 3);
  EXPECT_EQ(se[1].start, 100);   // head guarantee holds
  EXPECT_EQ(se[2].start, 200);   // non-head job delayed

  // Conservative: job 3 must wait behind both reservations.
  EXPECT_EQ(sc[1].start, 100);
  EXPECT_EQ(sc[2].start, 100);   // reservation honored exactly
  EXPECT_EQ(sc[3].start, 200);
}

TEST(ConservativeBackfill, ReservationsQueryable) {
  ConservativeParams params;
  auto dispatch = std::make_unique<ConservativeBackfillDispatch>(params);
  auto* d = dispatch.get();
  ListScheduler sched(std::make_unique<FcfsOrder>(), std::move(dispatch));

  sim::Machine m;
  m.nodes = 8;
  sched.reset(m);

  Job a = make_job(0, 8, 100, 100);
  a.id = 0;
  Job b = make_job(0, 4, 50, 50);
  b.id = 1;
  sched.on_submit(a, 0);
  sched.on_submit(b, 0);
  // Job 0 reserved now, job 1 after it.
  EXPECT_EQ(d->reservation_of(0), 0);
  EXPECT_EQ(d->reservation_of(1), 100);
  EXPECT_EQ(d->reserved_count(), 2u);

  std::vector<JobId> starts;
  sched.select_starts(0, 8, starts);
  ASSERT_EQ(starts.size(), 1u);
  EXPECT_EQ(starts[0], 0u);
  EXPECT_EQ(d->reserved_count(), 1u);
}

TEST(ConservativeBackfill, EarlyCompletionWakesReservation) {
  // Job 0 is estimated to run 1000 s but ends at 100. Job 1's reservation
  // (at 1000) is pulled in at the completion event.
  const auto w = test::make_workload({
      make_job(0, 8, 100, 1000),
      make_job(1, 8, 10, 10),
  });
  const auto s = test::run(cons(), w, 8);
  EXPECT_EQ(s[1].start, 100);
}

TEST(ConservativeBackfill, WakeupFiresReservationWithoutAnyEvent) {
  // With compression disabled, a reservation computed from an estimate
  // sits at t=100 while the blocking job actually ends at t=40. No arrival
  // or completion event exists at t=100 — only the scheduler's next_wakeup
  // can start job 1 there. (With the default prefix replan job 1 would
  // start at 40; this test pins the wakeup machinery itself.)
  AlgorithmSpec spec = cons();
  spec.conservative.replan_prefix = 0;
  const auto w = test::make_workload({
      make_job(0, 8, 40, 100),   // ends early at 40
      make_job(1, 8, 10, 10),    // reserved at 100
  });
  const auto s = test::run(spec, w, 8);
  EXPECT_EQ(s[1].start, 100);
}

TEST(ConservativeBackfill, PrefixReplanPullsJobsIn) {
  // Same workload with the default prefix replan: job 1 starts at the
  // early completion instead of its estimate-based reservation.
  const auto w = test::make_workload({
      make_job(0, 8, 40, 100),
      make_job(1, 8, 10, 10),
  });
  const auto s = test::run(cons(), w, 8);
  EXPECT_EQ(s[1].start, 40);
}

TEST(ConservativeBackfill, ReplanUsesHoleFromEarlyCompletion) {
  //   job0: 8 nodes, est 100, actual 20  -> hole from 20
  //   job1: 8 nodes est 100 reserved at 100 -> replanned to 20
  //   job2: 8 nodes est 100 reserved at 200 -> replanned when job1 ends
  const auto w = test::make_workload({
      make_job(0, 8, 20, 100),
      make_job(1, 8, 100, 100),
      make_job(2, 8, 100, 100),
  });
  const auto s = test::run(cons(), w, 8);
  EXPECT_EQ(s[1].start, 20);   // replanned into the hole at the event
  EXPECT_EQ(s[2].start, 120);  // replanned at job 1's completion event
}

TEST(ConservativeBackfill, CompressionMovesReservationsEarlier) {
  // Without any replanning job 1 waits for its estimate-based reservation
  // at 100; prefix replan and full compression both move it to 20 after
  // job 0's early completion.
  const auto w = test::make_workload({
      make_job(0, 8, 20, 100),
      make_job(1, 8, 100, 100),
  });
  AlgorithmSpec frozen = cons(false);
  frozen.conservative.replan_prefix = 0;
  AlgorithmSpec prefix = cons(false);
  AlgorithmSpec full = cons(true);

  EXPECT_EQ(test::run(frozen, w, 8)[1].start, 100);
  EXPECT_EQ(test::run(prefix, w, 8)[1].start, 20);
  EXPECT_EQ(test::run(full, w, 8)[1].start, 20);
}

TEST(ConservativeBackfill, PrefixReplanOnlyTouchesTheFront) {
  // replan_prefix = 1: job 1 is replanned into the hole, job 2's stale
  // reservation at 200 stays until job 1's completion refreshes it.
  AlgorithmSpec spec = cons();
  spec.conservative.replan_prefix = 1;
  const auto w = test::make_workload({
      make_job(0, 8, 20, 100),
      make_job(1, 8, 100, 100),
      make_job(2, 8, 100, 100),
  });
  const auto s = test::run(spec, w, 8);
  EXPECT_EQ(s[1].start, 20);
  EXPECT_EQ(s[2].start, 120);  // refreshed when job 1 completes at 120
}

TEST(ConservativeBackfill, DepthLimitKeepsDeepQueueCorrect) {
  // With reservation_depth 2 and four queued full-machine jobs, jobs
  // beyond the depth are dormant but must still run in order.
  AlgorithmSpec spec = cons();
  spec.conservative.reservation_depth = 2;
  const auto w = test::make_workload({
      make_job(0, 8, 10, 10),
      make_job(0, 8, 10, 10),
      make_job(0, 8, 10, 10),
      make_job(0, 8, 10, 10),
      make_job(0, 8, 10, 10),
  });
  const auto s = test::run(spec, w, 8);
  for (JobId i = 0; i < w.size(); ++i) {
    EXPECT_EQ(s[i].start, static_cast<Time>(10 * i));
  }
}

TEST(ConservativeBackfill, EquivalentToListWhenNoBlocking) {
  const auto w = test::make_workload({
      make_job(0, 2, 50),
      make_job(10, 2, 50),
      make_job(20, 2, 50),
  });
  const auto list = test::run(AlgorithmSpec{}, w, 8);
  const auto bf = test::run(cons(), w, 8);
  for (JobId i = 0; i < w.size(); ++i) EXPECT_EQ(list[i].start, bf[i].start);
}

TEST(ConservativeBackfill, RejectsBadParams) {
  ConservativeParams p;
  p.reservation_depth = 0;
  EXPECT_THROW(ConservativeBackfillDispatch{p}, std::invalid_argument);
}

TEST(ConservativeBackfill, HandlesMixedWorkloadValidly) {
  // End-to-end validity is asserted inside test::run (validate = true).
  const auto s = test::run(cons(), test::small_mixed_workload(), 16);
  SUCCEED();
}

// --- promotion beyond the reserved set ---------------------------------------

TEST(ConservativeBackfill, PromotionReadsOnlyTheJobsItReserves) {
  // An FCFS backlog of 1,000 jobs at depth 8: arrivals every 5 s, each
  // job 1-8 nodes wide for 100-400 s on 8 nodes, so the queue grows
  // hundreds deep and most jobs are reserved by promotion. With no reorder
  // and no outage the list of unreserved jobs never goes stale, so
  // promotion reads exactly the entries it reserves. (A scan from the
  // queue head read the 8 or so reserved entries first on every select.)
  std::vector<Job> jobs;
  for (int i = 0; i < 1000; ++i) {
    const Duration runtime = 100 + 100 * (i % 4);
    jobs.push_back(make_job(5 * i, 1 + (i * 3) % 8, runtime, 2 * runtime));
  }
  const workload::Workload w = test::make_workload(std::move(jobs));
  ConservativeParams params;
  params.reservation_depth = 8;
  auto dispatch = std::make_unique<ConservativeBackfillDispatch>(params);
  const auto* d = dispatch.get();
  ListScheduler sched(std::make_unique<FcfsOrder>(), std::move(dispatch));
  sim::Machine m;
  m.nodes = 8;
  (void)sim::simulate(m, sched, w);
  const auto& st = d->replan_stats();
  EXPECT_GT(st.promoted, 900u);
  EXPECT_EQ(st.promote_examined, st.promoted);
}

TEST(ConservativeBackfill, PromotionPinnedAcrossDepthsOrdersAndOutages) {
  // The differential suite cannot see promotion (the incremental and the
  // scratch replan share it), so its schedules are pinned here. 600
  // CTC-model jobs on 64 nodes keep the queue hundreds deep: every depth
  // binds and promotion reserves most jobs. The outage takes 24 nodes down
  // for 12 hours; a 60-node job submitted just after it starts is parked
  // (wider than the 40 surviving nodes) until the nodes return.
  constexpr int kNodes = 64;
  constexpr int kDown = 24;
  workload::CtcModelParams params;
  params.job_count = 600;
  const workload::Workload ctc = workload::trim_to_machine(
      workload::generate_ctc(params, 27), kNodes);
  std::vector<Job> jobs(ctc.begin(), ctc.end());
  const Time outage = jobs[jobs.size() / 2].submit;
  const Time repair = outage + 12 * kHour;
  jobs.push_back(make_job(outage + 1, 60, 3601, 7200));
  const workload::Workload w = test::make_workload(std::move(jobs));
  JobId wide = 0;
  while (w[wide].nodes != 60 || w[wide].runtime != 3601) ++wide;
  const fault::FailureTrace trace =
      fault::make_failure_trace({{outage, -kDown}, {repair, +kDown}}, kNodes);

  struct Pin {
    OrderKind order;
    std::size_t depth;
    bool outage;
    std::uint64_t fnv;
  };
  // Recorded before promotion kept its own list of unreserved jobs.
  constexpr Pin kPins[] = {
      {OrderKind::kFcfs, 1, false, 0x2b24bfdd2afa6f22ull},
      {OrderKind::kFcfs, 1, true, 0x97ee04e3e6c1ac32ull},
      {OrderKind::kFcfs, 8, false, 0x40398c019fd07fd6ull},
      {OrderKind::kFcfs, 8, true, 0x3c8351ffe6de1c8cull},
      {OrderKind::kFcfs, 64, false, 0x048ceff79ba9c4b3ull},
      {OrderKind::kFcfs, 64, true, 0x352cd327d4748194ull},
      {OrderKind::kSmartFfia, 1, false, 0x469ac4e9c32d1d2dull},
      {OrderKind::kSmartFfia, 1, true, 0x8472799aa4469fc4ull},
      {OrderKind::kSmartFfia, 8, false, 0x46f0ed6c61f346bfull},
      {OrderKind::kSmartFfia, 8, true, 0x9ed230df1522673full},
      {OrderKind::kSmartFfia, 64, false, 0xc8105b92ff7d0413ull},
      {OrderKind::kSmartFfia, 64, true, 0x58f04a93ec631c7bull},
      {OrderKind::kPsrs, 1, false, 0xe946d77a53b640caull},
      {OrderKind::kPsrs, 1, true, 0x1f4d72e5551d6158ull},
      {OrderKind::kPsrs, 8, false, 0xb367b03a66c99165ull},
      {OrderKind::kPsrs, 8, true, 0x5b07eba3583540f9ull},
      {OrderKind::kPsrs, 64, false, 0xeb4c4e1a0ac86214ull},
      {OrderKind::kPsrs, 64, true, 0x997b6de535c04f25ull},
  };
  sim::Machine m;
  m.nodes = kNodes;
  for (const Pin& pin : kPins) {
    AlgorithmSpec spec = cons();
    spec.order = pin.order;
    spec.conservative.reservation_depth = pin.depth;
    sim::SimOptions options;
    if (pin.outage) options.faults.trace = &trace;
    const auto scheduler = make_scheduler(spec);
    const sim::Schedule s = sim::simulate(m, *scheduler, w, options);
    const std::string label = spec.display_name() + " depth " +
                              std::to_string(pin.depth) +
                              (pin.outage ? " outage" : "");
    if (pin.outage) {
      EXPECT_GE(s[wide].start, repair) << label;
    }
    const std::uint64_t fnv = sim::schedule_fingerprint(s);
    EXPECT_EQ(fnv, pin.fnv) << label << ": 0x" << std::hex << fnv;
  }
}

}  // namespace
}  // namespace jsched::core
