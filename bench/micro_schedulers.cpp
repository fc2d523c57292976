// Micro-benchmarks (google-benchmark) for the scheduler building blocks:
// availability-profile operations, SMART planning, PSRS planning, and
// end-to-end simulation throughput per algorithm. These quantify the
// computation-time observations of Tables 7/8 at the operation level.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/conservative_backfill.h"
#include "core/factory.h"
#include "core/list_scheduler.h"
#include "core/ordering.h"
#include "core/psrs.h"
#include "core/smart.h"
#include "fault/fault.h"
#include "metrics/streaming.h"
#include "sim/profile.h"
#include "sim/reference_profile.h"
#include "sim/scheduler.h"
#include "sim/simulator.h"
#include "sim/streaming.h"
#include "util/rng.h"
#include "workload/job_source.h"
#include "workload/ctc_model.h"
#include "workload/transforms.h"

namespace {

using namespace jsched;

const workload::Workload& bench_workload() {
  static const workload::Workload w = [] {
    workload::CtcModelParams p;
    p.job_count = 5000;
    return workload::trim_to_machine(workload::generate_ctc(p, 42), 256);
  }();
  return w;
}

core::JobStore filled_store(std::size_t n, std::vector<JobId>& ids) {
  core::JobStore store;
  util::Rng rng(7);
  ids.clear();
  for (std::size_t i = 0; i < n; ++i) {
    Job j;
    j.id = static_cast<JobId>(i);
    j.nodes = static_cast<int>(rng.uniform_int(1, 256));
    j.estimate = rng.uniform_int(300, 86'400);
    j.runtime = 0;  // scheduler view
    store.put(j);
    ids.push_back(j.id);
  }
  return store;
}

// The profile benches are templated over the implementation so the flat
// timeline (sim::Profile) and the seed std::map (sim::ReferenceProfile)
// run head-to-head on byte-identical structures; the differential tests
// guarantee the packed state is the same for both. The range parameter is
// the number of breakpoints, the quantity the complexity bounds speak of.
template <class P>
struct PackedProfile {
  P profile;
  Time horizon;  // latest allocation end: queries at horizon/2 hit the middle
};

template <class P>
PackedProfile<P> packed_profile(std::size_t min_breakpoints) {
  PackedProfile<P> packed{P(256), 0};
  util::Rng rng(3);
  while (packed.profile.breakpoints() < min_breakpoints) {
    const int nodes = static_cast<int>(rng.uniform_int(1, 128));
    const Duration dur = rng.uniform_int(60, 7200);
    const Time start = packed.profile.earliest_fit(0, dur, nodes);
    packed.profile.allocate(start, dur, nodes);
    packed.horizon = std::max(packed.horizon, start + dur);
  }
  return packed;
}

template <class P>
void BM_ProfileEarliestFit(benchmark::State& state) {
  const auto packed =
      packed_profile<P>(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(packed.profile.earliest_fit(0, 3600, 64));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK_TEMPLATE(BM_ProfileEarliestFit, sim::Profile)
    ->RangeMultiplier(4)->Range(16, 8192)->Complexity();
BENCHMARK_TEMPLATE(BM_ProfileEarliestFit, sim::ReferenceProfile)
    ->RangeMultiplier(4)->Range(16, 8192)->Complexity();

template <class P>
void BM_ProfileAllocateRelease(benchmark::State& state) {
  auto packed = packed_profile<P>(static_cast<std::size_t>(state.range(0)));
  // Reserve where a backfiller actually would (guaranteed to fit), then
  // hand it back; the canonical merge restores the profile each cycle.
  const Time start = packed.profile.earliest_fit(packed.horizon / 2, 3600, 64);
  for (auto _ : state) {
    packed.profile.allocate(start, 3600, 64);
    packed.profile.release(start, 3600, 64);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK_TEMPLATE(BM_ProfileAllocateRelease, sim::Profile)
    ->RangeMultiplier(4)->Range(16, 8192)->Complexity();
BENCHMARK_TEMPLATE(BM_ProfileAllocateRelease, sim::ReferenceProfile)
    ->RangeMultiplier(4)->Range(16, 8192)->Complexity();

void BM_SmartPlan(benchmark::State& state) {
  std::vector<JobId> ids;
  const auto store = filled_store(static_cast<std::size_t>(state.range(0)), ids);
  core::SmartParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::smart_plan(ids, store, 256, params));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SmartPlan)->Range(64, 8192)->Complexity();

void BM_SmartPlanNfiw(benchmark::State& state) {
  std::vector<JobId> ids;
  const auto store = filled_store(static_cast<std::size_t>(state.range(0)), ids);
  core::SmartParams params;
  params.variant = core::SmartVariant::kNfiw;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::smart_plan(ids, store, 256, params));
  }
}
BENCHMARK(BM_SmartPlanNfiw)->Range(64, 8192);

void BM_PsrsPlan(benchmark::State& state) {
  std::vector<JobId> ids;
  const auto store = filled_store(static_cast<std::size_t>(state.range(0)), ids);
  const core::PsrsParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::psrs_plan(ids, store, 256, params));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PsrsPlan)->Range(64, 8192)->Complexity();

// Replan-heavy hot path: conservative backfilling with full compression
// over a deep backlog. A stream of early completions each lifts and
// re-places the whole reserved set — the exact scenario the in-place
// segment-tree updates, BulkUpdate batching and replan elisions target.
// The range parameter is the backlog depth (reservations held while the
// completions stream through); each iteration drains 32 completions.
void BM_ConservativeReplanHeavy(benchmark::State& state) {
  const std::size_t depth = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kRunning = 32;
  sim::Machine machine;
  machine.nodes = 256;

  core::JobStore store;
  std::vector<JobId> order;
  util::Rng rng(17);
  for (std::size_t i = 0; i < depth; ++i) {
    Job j;
    j.id = static_cast<JobId>(i);
    j.nodes = static_cast<int>(rng.uniform_int(1, 64));
    j.estimate = rng.uniform_int(600, 36'000);
    j.runtime = 0;  // scheduler view
    store.put(j);
    order.push_back(j.id);
  }
  std::vector<core::RunningJob> running;
  for (std::size_t i = 0; i < kRunning; ++i) {
    Job j;
    j.id = static_cast<JobId>(depth + i);
    j.nodes = static_cast<int>(rng.uniform_int(1, 8));  // sums to <= 256
    j.estimate = rng.uniform_int(1'000, 20'000);
    j.runtime = 0;
    store.put(j);
    running.push_back({j.id, 0, j.estimate, j.nodes});
  }

  core::ConservativeParams params;
  params.full_compression = true;
  params.compression_queue_limit = depth;  // never fall back to the prefix
  for (auto _ : state) {
    state.PauseTiming();
    core::ConservativeBackfillDispatch d(params);
    d.reset(machine, store);
    d.adopt(0, order, running);
    state.ResumeTiming();
    Time now = 0;
    for (const core::RunningJob& r : running) {
      now += 10;  // every completion beats its estimate -> full replan
      d.on_complete(r.id, now, r.estimated_end, order);
    }
    benchmark::DoNotOptimize(d.reserved_count());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ConservativeReplanHeavy)
    ->Arg(64)->Arg(256)->Arg(1024)->Complexity();

// Same backlog, but every completion is exactly on time: zero capacity is
// returned, so compression provably cannot move anything. The
// compression-debt elision turns each of these completions into O(log n)
// bookkeeping instead of a full O(n^2) replan — this bench measures that
// gap directly (before the elision it tracked BM_ConservativeReplanHeavy).
void BM_ConservativeOnTimeCompletions(benchmark::State& state) {
  const std::size_t depth = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kRunning = 32;
  sim::Machine machine;
  machine.nodes = 256;

  core::JobStore store;
  std::vector<JobId> order;
  util::Rng rng(17);
  for (std::size_t i = 0; i < depth; ++i) {
    Job j;
    j.id = static_cast<JobId>(i);
    j.nodes = static_cast<int>(rng.uniform_int(1, 64));
    j.estimate = rng.uniform_int(600, 36'000);
    j.runtime = 0;  // scheduler view
    store.put(j);
    order.push_back(j.id);
  }
  std::vector<core::RunningJob> running;
  for (std::size_t i = 0; i < kRunning; ++i) {
    Job j;
    j.id = static_cast<JobId>(depth + i);
    j.nodes = static_cast<int>(rng.uniform_int(1, 8));
    j.estimate = rng.uniform_int(1'000, 20'000);
    j.runtime = 0;
    store.put(j);
    running.push_back({j.id, 0, j.estimate, j.nodes});
  }
  std::sort(running.begin(), running.end(),
            [](const core::RunningJob& a, const core::RunningJob& b) {
              return a.estimated_end < b.estimated_end;
            });

  core::ConservativeParams params;
  params.full_compression = true;
  params.compression_queue_limit = depth;
  for (auto _ : state) {
    state.PauseTiming();
    core::ConservativeBackfillDispatch d(params);
    d.reset(machine, store);
    d.adopt(0, order, running);
    state.ResumeTiming();
    for (const core::RunningJob& r : running) {
      d.on_complete(r.id, r.estimated_end, r.estimated_end, order);
    }
    benchmark::DoNotOptimize(d.reserved_count());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ConservativeOnTimeCompletions)
    ->Arg(64)->Arg(256)->Arg(1024)->Complexity();

// The default (incremental) replan path on the workload it was built for:
// an end-to-end FCFS + conservative simulation over a CTC prefix, where
// most completions beat their estimate but return too little capacity to
// move anything. Conservative correctness demands a replan per early
// completion; exact screening plus cross-replan certificates should prove
// the window unmoved in O(window) instead of re-placing it (the
// lift-everything cost BM_ConservativeReplanHeavy measures). The counters
// surface the replan accounting in the JSON so a perf regression is
// diagnosable from the run alone — certificates disengaging shows up as
// `certified` collapsing toward zero (every reuse paying a profile walk
// again) long before wall time doubles.
void BM_ConservativeIncrementalReplan(benchmark::State& state) {
  const std::size_t jobs = static_cast<std::size_t>(state.range(0));
  const workload::Workload& full = bench_workload();
  const workload::Workload w(
      std::vector<Job>(full.jobs().begin(),
                       full.jobs().begin() +
                           static_cast<std::ptrdiff_t>(
                               std::min(jobs, full.jobs().size()))));
  sim::Machine machine;
  machine.nodes = 256;

  const core::ConservativeParams params;  // defaults: screened prefix replan
  core::ConservativeBackfillDispatch::ReplanStats total;
  for (auto _ : state) {
    state.PauseTiming();
    auto dispatch =
        std::make_unique<core::ConservativeBackfillDispatch>(params);
    auto* d = dispatch.get();
    core::ListScheduler scheduler(std::make_unique<core::FcfsOrder>(),
                                  std::move(dispatch));
    state.ResumeTiming();
    benchmark::DoNotOptimize(sim::simulate(machine, scheduler, w));
    state.PauseTiming();
    const auto& st = d->replan_stats();
    total.replans += st.replans;
    total.replans_elided += st.replans_elided;
    total.replaced += st.replaced;
    total.reused += st.reused;
    total.certified += st.certified;
    total.moved += st.moved;
    total.cursor_restarts += st.cursor_restarts;
    state.ResumeTiming();
  }
  const auto per_iter = [&](std::uint64_t v) {
    return benchmark::Counter(static_cast<double>(v),
                              benchmark::Counter::kAvgIterations);
  };
  state.counters["replans"] = per_iter(total.replans);
  state.counters["elided"] = per_iter(total.replans_elided);
  state.counters["replaced"] = per_iter(total.replaced);
  state.counters["reused"] = per_iter(total.reused);
  state.counters["certified"] = per_iter(total.certified);
  state.counters["moved"] = per_iter(total.moved);
  state.counters["cursor_restarts"] = per_iter(total.cursor_restarts);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ConservativeIncrementalReplan)
    ->Arg(512)->Arg(2048)->Arg(5000)->Complexity();

/// Forwards every call to the wrapped scheduler and counts the callbacks
/// the event kernel makes, so two benchmark variants can be shown to do
/// the same work rather than merely take similar time.
class CountingScheduler final : public sim::Scheduler {
 public:
  explicit CountingScheduler(sim::Scheduler& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  void reset(const sim::Machine& machine) override { inner_.reset(machine); }
  void on_submit(const Submission& job, Time now) override {
    ++on_submit_calls;
    inner_.on_submit(job, now);
  }
  void on_complete(JobId id, Time now) override {
    ++on_complete_calls;
    inner_.on_complete(id, now);
  }
  void on_capacity_change(Time now, int available_nodes) override {
    inner_.on_capacity_change(now, available_nodes);
  }
  void select_starts(Time now, int free_nodes,
                     std::vector<JobId>& starts) override {
    ++select_starts_calls;
    inner_.select_starts(now, free_nodes, starts);
  }
  Time next_wakeup(Time now) const override {
    ++next_wakeup_calls;
    return inner_.next_wakeup(now);
  }
  std::size_t queue_length() const override { return inner_.queue_length(); }

  std::uint64_t on_submit_calls = 0;
  std::uint64_t on_complete_calls = 0;
  std::uint64_t select_starts_calls = 0;
  mutable std::uint64_t next_wakeup_calls = 0;

 private:
  sim::Scheduler& inner_;
};

// Zero-failure overhead guard for the fault subsystem: arg 0 simulates
// with default options (null trace), arg 1 with a pointer to an *empty*
// trace. With either the event kernel never enters its fault branch, so
// the two variants run identical work; CI asserts their times stay within
// 2% of each other — if inactive fault options ever leak per-event work
// into the hot loop, the ratio blows up. Arg 2 is the same simulation with
// measure_scheduler_cpu on: CI bounds its ratio to arg 0, the cost of the
// Tables 7/8 instrument (one steady-clock bracket per callback). After the
// timed loop each variant runs once more, untimed, through a
// CountingScheduler and publishes its callback counts; CI requires them
// to be equal across the three variants.
void BM_SimulateZeroFailure(benchmark::State& state) {
  const auto& w = bench_workload();
  core::AlgorithmSpec spec;
  spec.dispatch = core::DispatchKind::kEasy;
  sim::Machine m;
  m.nodes = 256;
  auto scheduler = core::make_scheduler(spec);
  const fault::FailureTrace empty_trace = fault::make_failure_trace({}, 256);
  sim::SimOptions opt;
  opt.validate = false;
  if (state.range(0) == 1) opt.faults.trace = &empty_trace;
  opt.measure_scheduler_cpu = state.range(0) == 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::simulate(m, *scheduler, w, opt));
  }
  CountingScheduler counted(*scheduler);
  benchmark::DoNotOptimize(sim::simulate(m, counted, w, opt));
  state.counters["on_submit"] =
      static_cast<double>(counted.on_submit_calls);
  state.counters["on_complete"] =
      static_cast<double>(counted.on_complete_calls);
  state.counters["select_starts"] =
      static_cast<double>(counted.select_starts_calls);
  state.counters["next_wakeup"] =
      static_cast<double>(counted.next_wakeup_calls);
  static const char* const kLabels[] = {"no fault options", "empty trace",
                                        "scheduler CPU measured"};
  state.SetLabel(kLabels[state.range(0)]);
}
BENCHMARK(BM_SimulateZeroFailure)->Arg(0)->Arg(1)->Arg(2);

// Bounded-memory simulation throughput: the same FCFS+EASY simulation as
// the batch loop, but consumed as a stream with metrics folded by the
// StreamingAggregator instead of materializing a Schedule. items/sec is
// the jobs/sec figure the scale exit criterion speaks of; CI budgets the
// per-iteration time so a regression in the streaming event loop (or an
// accidental re-materialization) is caught at micro-benchmark scale.
void BM_StreamingSimulate(benchmark::State& state) {
  const auto& w = bench_workload();
  core::AlgorithmSpec spec;
  spec.dispatch = core::DispatchKind::kEasy;
  sim::Machine m;
  m.nodes = 256;
  auto scheduler = core::make_scheduler(spec);
  for (auto _ : state) {
    workload::WorkloadSource source(w);
    metrics::StreamingAggregator agg(m.nodes);
    benchmark::DoNotOptimize(sim::simulate_stream(m, *scheduler, source, agg));
    benchmark::DoNotOptimize(agg.finish().schedule_fnv);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(w.size()));
  state.SetLabel("FCFS+EASY / " + std::to_string(w.size()) + " jobs streamed");
}
BENCHMARK(BM_StreamingSimulate);

void BM_SimulateGrid(benchmark::State& state) {
  const auto& w = bench_workload();
  const auto grid = core::paper_grid(core::WeightKind::kUnit);
  const auto& spec = grid[static_cast<std::size_t>(state.range(0))];
  sim::Machine m;
  m.nodes = 256;
  auto scheduler = core::make_scheduler(spec);
  sim::SimOptions opt;
  opt.validate = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::simulate(m, *scheduler, w, opt));
  }
  state.SetLabel(spec.display_name() + " / " + std::to_string(w.size()) +
                 " jobs");
}
BENCHMARK(BM_SimulateGrid)->DenseRange(0, 12)->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
