// The queue index behind EASY and first fit, held to linear scans.
//
//  * QueueIndex.* drives the index directly: every fit it enumerates, over
//    random appends, starts, vetoes, rebuilds and compactions, must be the
//    fit a brute-force scan of the same queue finds.
//  * QueueIndexDifferential.* runs the indexed dispatchers and the linear
//    references in test support (the selection they made before the
//    index) through the same schedulers and workloads, and requires the
//    same starts at every select_starts and the same schedule fingerprint.
#include "core/queue_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/drain_window.h"
#include "core/easy_backfill.h"
#include "core/list_scheduler.h"
#include "core/ordering.h"
#include "core/phased_scheduler.h"
#include "core/psrs.h"
#include "core/smart.h"
#include "fault/failure_model.h"
#include "sim/schedule.h"
#include "sim/simulator.h"
#include "test_support.h"

namespace jsched::core {
namespace {

using test::make_job;

// --- the index alone ---------------------------------------------------------

bool fits(const Job& j, int free_nodes, Duration window, int extra) {
  return j.nodes <= free_nodes && (j.estimate <= window || j.nodes <= extra);
}

/// Ids of every live slot that fits, found by chaining find() from the
/// front the way the dispatchers do.
std::vector<JobId> enumerate(const QueueIndex& index, int free_nodes,
                             Duration window, int extra) {
  std::vector<JobId> ids;
  std::uint64_t examined = 0;
  for (std::size_t p = index.find(0, free_nodes, window, extra, examined);
       p != QueueIndex::npos;
       p = index.find(p + 1, free_nodes, window, extra, examined)) {
    ids.push_back(index.slot(p).id);
  }
  return ids;
}

/// Slot position of the `rank`-th live slot.
std::size_t live_position(const QueueIndex& index, std::size_t rank) {
  std::uint64_t examined = 0;
  std::size_t p = index.next_live(0, examined);
  for (std::size_t k = 0; k < rank; ++k) p = index.next_live(p + 1, examined);
  return p;
}

TEST(QueueIndex, FindMatchesLinearScan) {
  std::mt19937_64 rng(20240611);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  JobStore store;
  QueueIndex index;
  std::vector<JobId> queue;  // the reference, in queue order
  JobId next = 0;
  for (int op = 0; op < 3000; ++op) {
    const double r = uni(rng);
    if (queue.empty() || (r < 0.5 && queue.size() < 1500)) {
      // Bursts of appends grow the tree past several capacities.
      const int burst = r < 0.03 ? 150 : 1;
      for (int b = 0; b < burst; ++b) {
        Job j = make_job(0, 1 + static_cast<int>(63.0 * std::pow(uni(rng), 2)),
                         1, 1 + static_cast<Duration>(uni(rng) * 5000.0));
        j.id = next++;
        store.put(j);
        index.push_back(j);
        queue.push_back(j.id);
      }
    } else if (r < 0.97) {
      // One round: take up to three live slots in queue order, start all
      // but a vetoed one, as DrainWindowDispatch may.
      index.begin_round();
      std::vector<std::size_t> ranks;
      for (int k = 0; k < 3; ++k) {
        ranks.push_back(static_cast<std::size_t>(
            uni(rng) * static_cast<double>(queue.size())));
      }
      std::sort(ranks.begin(), ranks.end());
      ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
      std::vector<JobId> taken;
      for (std::size_t rank : ranks) {
        taken.push_back(index.take(live_position(index, rank)));
      }
      const bool veto = taken.size() > 1 && uni(rng) < 0.3;
      for (std::size_t k = veto ? 1 : 0; k < taken.size(); ++k) {
        index.erase(taken[k]);
        queue.erase(std::find(queue.begin(), queue.end(), taken[k]));
      }
      if (veto) {
        EXPECT_THROW(index.erase(taken[1]), std::logic_error)
            << "a started job cannot start twice";
      }
    } else {
      // A reorder: rebuild from a shuffled queue.
      std::shuffle(queue.begin(), queue.end(), rng);
      index.assign(queue, store);
    }
    ASSERT_TRUE(index.lists(queue)) << "op " << op;
    for (int q = 0; q < 3; ++q) {
      const int free_nodes = static_cast<int>(uni(rng) * 64.0);
      const auto window = static_cast<Duration>(uni(rng) * 6000.0);
      const int extra = static_cast<int>(uni(rng) * 48.0) - 8;
      std::vector<JobId> expected;
      for (JobId id : queue) {
        if (fits(store.get(id), free_nodes, window, extra)) {
          expected.push_back(id);
        }
      }
      ASSERT_EQ(enumerate(index, free_nodes, window, extra), expected)
          << "op " << op << " free " << free_nodes << " window " << window
          << " extra " << extra;
    }
  }
}

TEST(QueueIndex, TombstonesAreCompactedOnceTheyOutnumberLiveSlots) {
  JobStore store;
  QueueIndex index;
  for (JobId id = 0; id < 10; ++id) {
    Job j = make_job(0, 1, 10);
    j.id = id;
    store.put(j);
    index.push_back(j);
  }
  std::uint64_t examined = 0;
  index.begin_round();
  for (int k = 0; k < 6; ++k) {
    index.erase(index.take(index.next_live(0, examined)));
  }
  // Six tombstones at the front, four live slots: the next round compacts,
  // so the head is slot 0 again.
  EXPECT_EQ(index.next_live(0, examined), 6u);
  index.begin_round();
  EXPECT_EQ(index.next_live(0, examined), 0u);
  EXPECT_EQ(index.slot(0).id, 6u);
  EXPECT_TRUE(index.lists({6, 7, 8, 9}));
}

// --- the dispatchers, indexed vs linear --------------------------------------

enum class Pick { kEasy, kFirstFit };

const char* to_string(Pick pick) {
  return pick == Pick::kEasy ? "EASY" : "FF";
}

std::unique_ptr<Dispatcher> make_dispatch(Pick pick, bool linear) {
  if (pick == Pick::kEasy) {
    if (linear) return std::make_unique<test::LinearEasyDispatch>();
    return std::make_unique<EasyBackfillDispatch>();
  }
  if (linear) return std::make_unique<test::LinearFirstFitDispatch>();
  return std::make_unique<FirstFitDispatch>();
}

const SelectStats& stats_of(const Dispatcher& d) {
  if (const auto* e = dynamic_cast<const EasyBackfillDispatch*>(&d)) {
    return e->select_stats();
  }
  if (const auto* f = dynamic_cast<const FirstFitDispatch*>(&d)) {
    return f->select_stats();
  }
  if (const auto* e = dynamic_cast<const test::LinearEasyDispatch*>(&d)) {
    return e->select_stats();
  }
  return dynamic_cast<const test::LinearFirstFitDispatch&>(d).select_stats();
}

/// One select_starts call and its answer.
struct Round {
  Time now;
  int free_nodes;
  std::vector<JobId> starts;
  friend bool operator==(const Round&, const Round&) = default;
};

/// Forwards every call to `inner` and records each select_starts round.
class RecordingScheduler final : public sim::Scheduler {
 public:
  explicit RecordingScheduler(sim::Scheduler& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  void reset(const sim::Machine& machine) override {
    rounds_.clear();
    inner_.reset(machine);
  }
  void on_submit(const Submission& job, Time now) override {
    inner_.on_submit(job, now);
  }
  void on_complete(JobId id, Time now) override { inner_.on_complete(id, now); }
  void on_capacity_change(Time now, int available_nodes) override {
    inner_.on_capacity_change(now, available_nodes);
  }
  void select_starts(Time now, int free_nodes,
                     std::vector<JobId>& starts) override {
    inner_.select_starts(now, free_nodes, starts);
    rounds_.push_back({now, free_nodes, starts});
  }
  Time next_wakeup(Time now) const override { return inner_.next_wakeup(now); }
  std::size_t queue_length() const override { return inner_.queue_length(); }

  const std::vector<Round>& rounds() const { return rounds_; }

 private:
  sim::Scheduler& inner_;
  std::vector<Round> rounds_;
};

struct Recorded {
  sim::Schedule schedule;
  std::vector<Round> rounds;
};

Recorded run_recorded(sim::Scheduler& scheduler, const workload::Workload& w,
                      int nodes, const sim::SimOptions& options = {}) {
  sim::Machine m;
  m.nodes = nodes;
  RecordingScheduler recorder(scheduler);
  Recorded r;
  r.schedule = sim::simulate(m, recorder, w, options);
  r.rounds = recorder.rounds();
  return r;
}

/// Simulate `w` through `indexed_sched` (indexed dispatchers) and
/// `linear_sched` (the same scheduler over the linear references), and
/// require the same starts in every round and the same fingerprint.
/// Returns the indexed run.
Recorded expect_same_selection(sim::Scheduler& indexed_sched,
                               sim::Scheduler& linear_sched,
                               const workload::Workload& w, int nodes,
                               const std::string& label,
                               const sim::SimOptions& options = {}) {
  Recorded indexed = run_recorded(indexed_sched, w, nodes, options);
  const Recorded linear = run_recorded(linear_sched, w, nodes, options);
  EXPECT_EQ(sim::schedule_fingerprint(indexed.schedule),
            sim::schedule_fingerprint(linear.schedule))
      << label;
  EXPECT_EQ(indexed.rounds.size(), linear.rounds.size()) << label;
  const std::size_t n = std::min(indexed.rounds.size(), linear.rounds.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!(indexed.rounds[i] == linear.rounds[i])) {
      ADD_FAILURE() << label << ": round " << i << " at t="
                    << indexed.rounds[i].now << " started "
                    << indexed.rounds[i].starts.size() << " jobs, the linear "
                    << "reference " << linear.rounds[i].starts.size();
      break;
    }
  }
  return indexed;
}

/// Bursty arrivals every `mean_gap` seconds on average; widths skewed
/// narrow with some near-machine jobs; estimates exact for a third of the
/// jobs and over-stated up to 4x for the rest; priority classes drawn
/// from [0, classes).
workload::Workload random_workload(std::uint64_t seed, std::size_t jobs,
                                   int machine_nodes, double mean_gap,
                                   int classes = 1) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::vector<Job> js;
  js.reserve(jobs);
  Time t = 0;
  for (std::size_t i = 0; i < jobs; ++i) {
    if (uni(rng) > 0.25) t += static_cast<Time>(uni(rng) * 2.0 * mean_gap);
    const int nodes =
        1 + static_cast<int>((machine_nodes - 1) * std::pow(uni(rng), 3.0));
    const auto runtime =
        static_cast<Duration>(1.0 + uni(rng) * uni(rng) * 7200.0);
    const Duration estimate =
        uni(rng) < 0.33 ? runtime
                        : static_cast<Duration>(static_cast<double>(runtime) *
                                                (1.0 + 3.0 * uni(rng)));
    Job j = make_job(t, nodes, runtime, estimate);
    j.priority_class = static_cast<std::int32_t>(uni(rng) * classes);
    js.push_back(j);
  }
  return test::make_workload(std::move(js));
}

constexpr int kNodes = 128;

/// `Order` composed with the indexed (`linear` false) or linear `pick`.
template <typename Order, typename... Args>
std::unique_ptr<ListScheduler> list_of(Pick pick, bool linear,
                                       const Args&... args) {
  return std::make_unique<ListScheduler>(std::make_unique<Order>(args...),
                                         make_dispatch(pick, linear));
}

/// About five times what kNodes nodes serve: the queue only grows.
workload::Workload deep_backlog() {
  return random_workload(7, 4000, kNodes, 45.0);
}

TEST(QueueIndexDifferential, OpenLoopBacklogPastTwoThousand) {
  const auto w = deep_backlog();
  for (Pick pick : {Pick::kEasy, Pick::kFirstFit}) {
    const auto indexed = list_of<FcfsOrder>(pick, false);
    const auto linear = list_of<FcfsOrder>(pick, true);
    const auto run = expect_same_selection(
        *indexed, *linear, w, kNodes, std::string("FCFS+") + to_string(pick));
    EXPECT_GT(run.schedule.max_queue_length, 2000u) << to_string(pick);
  }
}

TEST(QueueIndexDifferential, PriorityFcfsInsertsMidQueue) {
  const auto w = random_workload(11, 2500, kNodes, 90.0, 3);
  for (Pick pick : {Pick::kEasy, Pick::kFirstFit}) {
    const auto indexed = list_of<PriorityFcfsOrder>(pick, false);
    const auto linear = list_of<PriorityFcfsOrder>(pick, true);
    expect_same_selection(*indexed, *linear, w, kNodes,
                          std::string("PRIO-FCFS+") + to_string(pick));
  }
}

TEST(QueueIndexDifferential, ReplanningOrdersRebuildTheIndex) {
  const auto w = random_workload(13, 2000, kNodes, 120.0);
  for (Pick pick : {Pick::kEasy, Pick::kFirstFit}) {
    const auto smart_indexed = list_of<SmartOrder>(pick, false, SmartParams{});
    const auto smart_linear = list_of<SmartOrder>(pick, true, SmartParams{});
    const auto smart =
        expect_same_selection(*smart_indexed, *smart_linear, w, kNodes,
                              std::string("SMART-FFIA+") + to_string(pick));
    const auto psrs_indexed = list_of<PsrsOrder>(pick, false, PsrsParams{});
    const auto psrs_linear = list_of<PsrsOrder>(pick, true, PsrsParams{});
    const auto psrs =
        expect_same_selection(*psrs_indexed, *psrs_linear, w, kNodes,
                              std::string("PSRS+") + to_string(pick));
    EXPECT_GT(smart.schedule.max_queue_length, 50u);
    EXPECT_GT(psrs.schedule.max_queue_length, 50u);
  }
}

TEST(QueueIndexDifferential, FaultKillsAndResubmissions) {
  const auto w = random_workload(17, 2000, kNodes, 100.0);
  fault::FailureModelParams params;
  params.nodes = kNodes;
  params.horizon = 4 * kDay;
  params.mtbf = 5.0 * static_cast<double>(kDay);
  const fault::FailureTrace trace = fault::generate_failures(params, 5);
  sim::SimOptions options;
  options.faults.trace = &trace;
  for (Pick pick : {Pick::kEasy, Pick::kFirstFit}) {
    const auto indexed = list_of<FcfsOrder>(pick, false);
    const auto linear = list_of<FcfsOrder>(pick, true);
    const auto run =
        expect_same_selection(*indexed, *linear, w, kNodes,
                              std::string("faulty FCFS+") + to_string(pick),
                              options);
    EXPECT_GT(run.schedule.attempts.size(), 10u) << "kills re-submit jobs";
  }
}

TEST(QueueIndexDifferential, PhasedFlipsAdoptTheQueue) {
  // SMART+EASY by day, FCFS+FF by night (the §7 combination): each flip
  // hands the incoming dispatcher a queue it did not see arrive.
  const auto w = random_workload(19, 2500, kNodes, 150.0);
  const auto phased = [](bool linear) {
    return PhasedScheduler(PhaseWindow{7 * kHour, 20 * kHour, true},
                           std::make_unique<SmartOrder>(SmartParams{}),
                           make_dispatch(Pick::kEasy, linear),
                           std::make_unique<FcfsOrder>(),
                           make_dispatch(Pick::kFirstFit, linear));
  };
  PhasedScheduler indexed = phased(false);
  PhasedScheduler linear = phased(true);
  expect_same_selection(indexed, linear, w, kNodes,
                        "day[SMART-FFIA+EASY]/night[FCFS+FF]");
  EXPECT_GT(indexed.phase_flips(), 4u);
}

TEST(QueueIndexDifferential, DrainWindowVetoesAroundEachDispatcher) {
  // Vetoed picks stay queued: the index must only drop the jobs that start.
  const auto w = random_workload(23, 2000, kNodes, 150.0);
  for (Pick pick : {Pick::kEasy, Pick::kFirstFit}) {
    const PhaseWindow course{10 * kHour, 11 * kHour, true};
    auto drain = std::make_unique<DrainWindowDispatch>(
        make_dispatch(pick, false), course);
    const DrainWindowDispatch& vetoes = *drain;
    ListScheduler indexed(std::make_unique<FcfsOrder>(), std::move(drain));
    ListScheduler linear(std::make_unique<FcfsOrder>(),
                         std::make_unique<DrainWindowDispatch>(
                             make_dispatch(pick, true), course));
    expect_same_selection(indexed, linear, w, kNodes,
                          std::string("FCFS+") + to_string(pick) + "+DRAIN");
    EXPECT_GT(vetoes.vetoed(), 0u) << to_string(pick);
  }
}

TEST(QueueIndexDifferential, ShadowTieOfUnequalWidthsIsPinned) {
  // Two running jobs end together at the shadow time t=100, with 3 and 5
  // nodes; the head needs 6 of 10 nodes and 2 are free. Sorting the
  // running set by estimated end leaves a tie, and the extra nodes depend
  // on which job the sort puts first: 2+3 < 6, so both count and extra is
  // 4 when the 3-node job comes first; 2+5 >= 6, so extra is 1 when the
  // 5-node job does. A long 2-node job backfills on extra nodes only in the
  // first case. Both dispatchers see the running set in start order and
  // must resolve the tie alike.
  for (const bool narrow_first : {true, false}) {
    const int a = narrow_first ? 3 : 5;
    const auto w = test::make_workload({
        make_job(0, a, 100, 100),
        make_job(0, 8 - a, 100, 100),
        make_job(1, 6, 50, 50),     // head: blocked until t=100
        make_job(2, 2, 500, 500),   // runs past the shadow
    });
    for (bool linear : {false, true}) {
      ListScheduler sched(std::make_unique<FcfsOrder>(),
                          make_dispatch(Pick::kEasy, linear));
      sim::Machine m;
      m.nodes = 10;
      const auto s = sim::simulate(m, sched, w);
      EXPECT_EQ(s[2].start, 100) << "head keeps its reservation";
      EXPECT_EQ(s[3].start, narrow_first ? 2 : 100)
          << (linear ? "linear" : "indexed") << ", narrow first "
          << narrow_first;
    }
  }
}

/// Submits on a ten-minute grid with estimates of one to six grid steps,
/// so the jobs that start together share estimated ends; mostly 1-4 node
/// jobs (dozens run at once on kNodes nodes) and some wide ones that block
/// the head. Half the jobs end early, off the grid. With `distinct_ends`
/// every runtime is a whole number of grid steps instead, so every event
/// lands on the grid, and job i's estimate is i + 1 seconds past its
/// runtime: for fewer than 600 jobs no two estimated ends ever meet.
workload::Workload shared_ends_workload(std::uint64_t seed, std::size_t jobs,
                                        bool distinct_ends = false) {
  constexpr Duration kStep = 600;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::vector<Job> js;
  js.reserve(jobs);
  Time t = 0;
  for (std::size_t i = 0; i < jobs; ++i) {
    if (uni(rng) < 0.25) t += kStep;
    const int nodes = uni(rng) < 0.08 ? 16 + static_cast<int>(uni(rng) * 48)
                                      : 1 + static_cast<int>(uni(rng) * 4);
    const auto steps = 1 + static_cast<Duration>(uni(rng) * 6);
    Duration runtime = steps * kStep;
    Duration estimate = runtime;
    if (distinct_ends) {
      estimate += static_cast<Duration>(i) + 1;  // below kStep
    } else if (uni(rng) < 0.5) {
      runtime = 1 + static_cast<Duration>(uni(rng) *
                                            static_cast<double>(runtime - 1));
    }
    js.push_back(make_job(t, nodes, runtime, estimate));
  }
  return test::make_workload(std::move(js));
}

TEST(QueueIndexDifferential, ShadowTiesPastSixteenRunning) {
  // Past 16 elements std::sort partitions instead of running a stable
  // insertion sort, so jobs ending together no longer stay in start order.
  // The ordered running set must hand every tie whose extra nodes depend
  // on that order to the sorted copy of the same sequence, through every
  // path that feeds it: plain starts, adoption at a phase flip, greedy
  // starts vetoed before on_start, and kills.
  const auto w = shared_ends_workload(29, 1500);
  {
    const auto indexed = list_of<FcfsOrder>(Pick::kEasy, false);
    const auto linear = list_of<FcfsOrder>(Pick::kEasy, true);
    const auto run =
        expect_same_selection(*indexed, *linear, w, kNodes, "FCFS+EASY");
    EXPECT_GT(stats_of(indexed->dispatcher()).tie_sorts, 0u);
    std::size_t peak = 0;  // most jobs running at once
    for (const auto& r : run.schedule.records()) {
      std::size_t running = 0;
      for (const auto& q : run.schedule.records()) {
        running += q.start <= r.start && r.start < q.end ? 1 : 0;
      }
      peak = std::max(peak, running);
    }
    EXPECT_GT(peak, 16u);
  }
  {
    // Night (FCFS+FF) runs at t=0, so EASY first runs the day by adopt.
    const PhaseWindow day{7 * kHour, 20 * kHour, true};
    auto easy = std::make_unique<EasyBackfillDispatch>();
    const EasyBackfillDispatch& adopted = *easy;
    PhasedScheduler indexed(day, std::make_unique<FcfsOrder>(),
                            std::move(easy), std::make_unique<FcfsOrder>(),
                            make_dispatch(Pick::kFirstFit, false));
    PhasedScheduler linear(day, std::make_unique<FcfsOrder>(),
                           make_dispatch(Pick::kEasy, true),
                           std::make_unique<FcfsOrder>(),
                           make_dispatch(Pick::kFirstFit, true));
    expect_same_selection(indexed, linear, w, kNodes,
                          "day[FCFS+EASY]/night[FCFS+FF]");
    EXPECT_GT(indexed.phase_flips(), 4u);
    EXPECT_GT(adopted.select_stats().tie_sorts, 0u);
  }
  {
    const PhaseWindow course{10 * kHour, 11 * kHour, true};
    auto easy = std::make_unique<EasyBackfillDispatch>();
    const EasyBackfillDispatch& inner = *easy;
    auto drain = std::make_unique<DrainWindowDispatch>(std::move(easy), course);
    const DrainWindowDispatch& vetoes = *drain;
    ListScheduler indexed(std::make_unique<FcfsOrder>(), std::move(drain));
    ListScheduler linear(std::make_unique<FcfsOrder>(),
                         std::make_unique<DrainWindowDispatch>(
                             make_dispatch(Pick::kEasy, true), course));
    expect_same_selection(indexed, linear, w, kNodes, "FCFS+EASY+DRAIN");
    EXPECT_GT(vetoes.vetoed(), 0u);
    EXPECT_GT(inner.select_stats().tie_sorts, 0u);
  }
  {
    fault::FailureModelParams params;
    params.nodes = kNodes;
    params.horizon = 4 * kDay;
    params.mtbf = static_cast<double>(kDay);
    const fault::FailureTrace trace = fault::generate_failures(params, 31);
    sim::SimOptions options;
    options.faults.trace = &trace;
    const auto indexed = list_of<FcfsOrder>(Pick::kEasy, false);
    const auto linear = list_of<FcfsOrder>(Pick::kEasy, true);
    const auto run = expect_same_selection(*indexed, *linear, w, kNodes,
                                           "faulty FCFS+EASY", options);
    EXPECT_GT(run.schedule.attempts.size(), 10u) << "kills re-submit jobs";
    EXPECT_GT(stats_of(indexed->dispatcher()).tie_sorts, 0u);
  }
  {
    // Without shared ends every shadow comes from the ordered set alone.
    const auto distinct = shared_ends_workload(29, 599, true);
    const auto indexed = list_of<FcfsOrder>(Pick::kEasy, false);
    const auto linear = list_of<FcfsOrder>(Pick::kEasy, true);
    expect_same_selection(*indexed, *linear, distinct, kNodes,
                          "FCFS+EASY, distinct ends");
    // Each select either walks to a fresh shadow or resumes at the last
    // select's frontier with the shadow that walk found.
    const SelectStats& stats = stats_of(indexed->dispatcher());
    EXPECT_GT(stats.shadows + stats.settled, 40u);
    EXPECT_EQ(stats.tie_sorts, 0u);
  }
}

TEST(QueueIndexDifferential, SettledFrontierHoldsOnlyWhileNothingMoves) {
  // A select settles a frontier, and the next resumes there only while
  // every job it picked started, the index was not rebuilt, the free nodes
  // are the ones it left and, for EASY, no job completed. Arrivals and the
  // select the kernel repeats at an instant after every round of starts
  // keep the frontier. A drain-window veto, a reorder at an adoption, a
  // kill, and an idle node failing or rejoining (which moves the free
  // nodes with no completion) must each drop it.
  const auto w = random_workload(37, 2000, kNodes, 40.0);
  // Three nodes fail for twenty minutes every three hours: on a full
  // machine that kills, with idle nodes it only shrinks the free nodes.
  std::vector<fault::FailureEvent> events;
  for (Time t = kHour; t < 4 * kDay; t += 3 * kHour) {
    events.push_back({t, -3});
    events.push_back({t + 20 * kMinute, 3});
  }
  const fault::FailureTrace trace = fault::make_failure_trace(events, kNodes);
  sim::SimOptions faulty;
  faulty.faults.trace = &trace;
  const PhaseWindow course{10 * kHour, 11 * kHour, true};
  for (Pick pick : {Pick::kEasy, Pick::kFirstFit}) {
    const std::string label = std::string("FCFS+") + to_string(pick);
    {
      const auto indexed = list_of<FcfsOrder>(pick, false);
      const auto linear = list_of<FcfsOrder>(pick, true);
      const auto run =
          expect_same_selection(*indexed, *linear, w, kNodes, label);
      EXPECT_GT(stats_of(indexed->dispatcher()).settled, 0u) << label;
      std::size_t repeats = 0;  // selects at the instant of the one before
      for (std::size_t i = 1; i < run.rounds.size(); ++i) {
        if (run.rounds[i].now == run.rounds[i - 1].now) ++repeats;
      }
      EXPECT_GT(repeats, 1000u) << label;
    }
    {
      auto inner = make_dispatch(pick, false);
      const Dispatcher& vetoed_inner = *inner;
      auto drain = std::make_unique<DrainWindowDispatch>(std::move(inner),
                                                         course);
      const DrainWindowDispatch& vetoes = *drain;
      ListScheduler indexed(std::make_unique<FcfsOrder>(), std::move(drain));
      ListScheduler linear(std::make_unique<FcfsOrder>(),
                           std::make_unique<DrainWindowDispatch>(
                               make_dispatch(pick, true), course));
      expect_same_selection(indexed, linear, w, kNodes, label + "+DRAIN");
      EXPECT_GT(vetoes.vetoed(), 0u) << label;
      EXPECT_GT(stats_of(vetoed_inner).settled, 0u) << label;
    }
    {
      const auto indexed = list_of<FcfsOrder>(pick, false);
      const auto linear = list_of<FcfsOrder>(pick, true);
      const auto run = expect_same_selection(*indexed, *linear, w, kNodes,
                                             "faulty " + label, faulty);
      EXPECT_GT(stats_of(indexed->dispatcher()).settled, 0u) << label;
      std::size_t quiet_drops = 0;  // failures that killed nothing
      for (const fault::FailureEvent& e : trace.events) {
        const bool killed = std::any_of(
            run.schedule.attempts.begin(), run.schedule.attempts.end(),
            [&](const sim::AttemptRecord& a) { return a.end == e.t; });
        if (e.delta < 0 && !killed) ++quiet_drops;
      }
      EXPECT_GT(quiet_drops, 0u) << label;
      EXPECT_FALSE(run.schedule.attempts.empty()) << label << " kills";
    }
  }
  {
    // Jobs that share estimated ends: a shadow left to the sorted copy, or
    // joined by a backfill ending at the shadow time, must not settle.
    const auto shared = shared_ends_workload(313, 1500);
    const auto indexed = list_of<FcfsOrder>(Pick::kEasy, false);
    const auto linear = list_of<FcfsOrder>(Pick::kEasy, true);
    expect_same_selection(*indexed, *linear, shared, kNodes,
                          "FCFS+EASY, shared ends");
    const SelectStats& stats = stats_of(indexed->dispatcher());
    EXPECT_GT(stats.tie_sorts, 0u);
    EXPECT_GT(stats.settled, 0u);
  }
  // EASY by day and first fit by night: every flip adopts the queue.
  auto easy = make_dispatch(Pick::kEasy, false);
  auto first_fit = make_dispatch(Pick::kFirstFit, false);
  const Dispatcher& day = *easy;
  const Dispatcher& night = *first_fit;
  const PhaseWindow daytime{7 * kHour, 20 * kHour, true};
  PhasedScheduler indexed(daytime, std::make_unique<FcfsOrder>(),
                          std::move(easy), std::make_unique<FcfsOrder>(),
                          std::move(first_fit));
  PhasedScheduler linear(daytime, std::make_unique<FcfsOrder>(),
                         make_dispatch(Pick::kEasy, true),
                         std::make_unique<FcfsOrder>(),
                         make_dispatch(Pick::kFirstFit, true));
  expect_same_selection(indexed, linear, w, kNodes,
                        "day[FCFS+EASY]/night[FCFS+FF]");
  EXPECT_GT(indexed.phase_flips(), 2u);
  EXPECT_GT(stats_of(day).settled, 0u);
  EXPECT_GT(stats_of(night).settled, 0u);
}

TEST(QueueIndexDifferential, SettledFrontierSeesWhatTheFreeNodesHide) {
  // Idle nodes failing at the instant of a change can leave the free nodes
  // where the last select left them. On 12 nodes:
  //  * A completion: at t=50 job 0 ends early and 3 idle nodes fail. The
  //    head (8 nodes) now has 2 free and 1 + 6 more by t=1000, so 1 extra
  //    node, not the 4 it had: job 4 (2 nodes, past the shadow) must wait.
  //  * A veto: at t=1 job 2 (2 nodes) fits but would run into the drain
  //    window at t=72000, so it does not start; at t=5 2 idle nodes fail.
  //    Job 2 still fits first, so job 3 (4 nodes) must wait.
  const auto completion = test::make_workload({
      make_job(0, 3, 50, 100),
      make_job(0, 6, 1000, 1000),
      make_job(1, 8, 10, 10),     // head: blocked until t=1000
      make_job(1, 1, 500, 500),   // backfills before the shadow
      make_job(50, 2, 100, 5000),
  });
  const fault::FailureTrace lost_three =
      fault::make_failure_trace({{50, -3}, {5000, 3}}, 12);
  const auto veto = test::make_workload({
      make_job(0, 6, 70000, 70000),
      make_job(1, 8, 10, 10),     // head: blocked until t=70000
      make_job(1, 2, 100, 72000),
      make_job(5, 4, 100, 100),
  });
  const fault::FailureTrace lost_two =
      fault::make_failure_trace({{5, -2}, {100000, 2}}, 12);
  const PhaseWindow drain{20 * kHour, 21 * kHour, false};
  for (Pick pick : {Pick::kEasy, Pick::kFirstFit}) {
    const std::string label = std::string("FCFS+") + to_string(pick);
    sim::SimOptions options;
    options.faults.trace = &lost_three;
    {
      const auto indexed = list_of<FcfsOrder>(pick, false);
      const auto linear = list_of<FcfsOrder>(pick, true);
      const auto run = expect_same_selection(
          *indexed, *linear, completion, 12, label + ", completion", options);
      EXPECT_TRUE(run.schedule.attempts.empty()) << label;
      if (pick == Pick::kEasy) {
        EXPECT_GT(run.schedule[4].start, 50) << label;
      }
    }
    options.faults.trace = &lost_two;
    ListScheduler indexed(std::make_unique<FcfsOrder>(),
                          std::make_unique<DrainWindowDispatch>(
                              make_dispatch(pick, false), drain));
    ListScheduler linear(std::make_unique<FcfsOrder>(),
                         std::make_unique<DrainWindowDispatch>(
                             make_dispatch(pick, true), drain));
    const auto run = expect_same_selection(indexed, linear, veto, 12,
                                           label + "+DRAIN, veto", options);
    EXPECT_TRUE(run.schedule.attempts.empty()) << label;
    EXPECT_GT(run.schedule[2].start, 5) << label;
    EXPECT_GT(run.schedule[3].start, 5) << label;
  }
}

TEST(QueueIndexDifferential, SelectStatsCountTheSearch) {
  // The deterministic gate for the index: the same rounds and shadow
  // computations only where a job behind the blocked head fits and no
  // frontier carries the last shadow over, at a tenth of the slots the
  // linear scans read.
  const auto w = deep_backlog();
  for (Pick pick : {Pick::kEasy, Pick::kFirstFit}) {
    SelectStats stats[2];
    for (bool linear : {false, true}) {
      auto d = make_dispatch(pick, linear);
      const Dispatcher* dispatcher = d.get();
      ListScheduler sched(std::make_unique<FcfsOrder>(), std::move(d));
      sim::Machine m;
      m.nodes = kNodes;
      (void)sim::simulate(m, sched, w);
      stats[linear ? 1 : 0] = stats_of(*dispatcher);
    }
    const SelectStats& indexed = stats[0];
    const SelectStats& linear = stats[1];
    EXPECT_EQ(indexed.selects, linear.selects) << to_string(pick);
    EXPECT_LT(indexed.slots_examined * 10, linear.slots_examined)
        << to_string(pick) << ": " << indexed.slots_examined << " vs "
        << linear.slots_examined;
    if (pick == Pick::kEasy) {
      EXPECT_EQ(indexed.selects, 10297u);
      EXPECT_EQ(indexed.shadows, 3552u);
      EXPECT_EQ(indexed.settled, 5848u);
      EXPECT_EQ(indexed.tie_sorts, 0u);   // no tie the walk left to a sort
      EXPECT_EQ(linear.shadows, 10290u);  // the head was blocked
    } else {
      EXPECT_EQ(indexed.selects, 10644u);
      EXPECT_EQ(indexed.settled, 6637u);
      EXPECT_EQ(indexed.shadows, 0u);
    }
  }
}

}  // namespace
}  // namespace jsched::core
