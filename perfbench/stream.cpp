// stream_ctc: a ~4M-job CTC-model trace at machine width (the parameters
// of bench::run_scale_stream), encoded to JWB1 during setup and streamed
// through workload::BinaryJobSource -> FCFS+EASY -> StreamingAggregator.
// The scheduler is cheap here, so the event kernel, the decoder and the
// metric fold dominate, in bounded memory.
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics/streaming.h"
#include "pinned.h"
#include "sim/streaming.h"
#include "workload/binary.h"
#include "workload/ctc_model.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kJobs = 4'000'000;

workload::CtcModelParams stream_params() {
  workload::CtcModelParams params;
  params.job_count = kJobs;
  params.machine_nodes = kMachineNodes;  // no trimming pass
  params.mean_interarrival = 300.0;      // offered load ~0.9
  return params;
}

/// Writes the trace as JWB1; returns its offered load on the machine.
double encode_trace(const std::string& path, std::uint64_t seed) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  workload::CtcJobSource source(stream_params(), seed);
  workload::BinaryWriter writer(out);
  Job j;
  double area = 0.0;
  while (source.next(j)) {
    writer.add(j);
    area += j.area();
  }
  writer.finish();
  return area / (static_cast<double>(kMachineNodes) *
                 static_cast<double>(j.submit + 1));
}

struct StreamRun {
  double wall = 0.0;
  std::uint64_t fnv = 0;
  sim::StreamStats stats;
};

core::AlgorithmSpec fcfs_easy() { return core::parse_spec("FCFS+EASY"); }

/// Forwards every record, probing the machine's speed about once a second
/// (the clock is read every 64Ki records).
class ProbingSink final : public sim::RecordSink {
 public:
  ProbingSink(sim::RecordSink& inner, SpeedSampler& sampler)
      : inner_(inner), sampler_(sampler) {}

  void on_record(JobId id, const sim::JobRecord& record,
                 const Job& j) override {
    inner_.on_record(id, record, j);
    if ((++records_ & 0xffff) == 0) sampler_.sample_every(1.0);
  }
  void on_attempt(const sim::AttemptRecord& attempt) override {
    inner_.on_attempt(attempt);
  }
  void on_capacity_event(Time t, int capacity) override {
    inner_.on_capacity_event(t, capacity);
  }

 private:
  sim::RecordSink& inner_;
  SpeedSampler& sampler_;
  std::uint64_t records_ = 0;
};

StreamRun plain_stream(const std::string& path,
                       SpeedSampler* sampler = nullptr) {
  workload::BinaryJobSource source(path);
  const auto scheduler = core::make_scheduler(fcfs_easy());
  metrics::StreamingAggregator aggregator(kMachineNodes);
  const Clock::time_point t0 = Clock::now();
  StreamRun run;
  if (sampler != nullptr) {
    ProbingSink sink(aggregator, *sampler);
    run.stats = sim::simulate_stream(sim::Machine{kMachineNodes}, *scheduler,
                                     source, sink);
  } else {
    run.stats = sim::simulate_stream(sim::Machine{kMachineNodes}, *scheduler,
                                     source, aggregator);
  }
  run.fnv = aggregator.finish().schedule_fnv;
  run.wall = seconds_since(t0);
  return run;
}

void check_run(Report& report, const StreamRun& run, std::uint64_t seed) {
  gate(report, run.stats.jobs == kJobs, "every generated job was streamed");
  if (const auto pinned = pinned_stream_fnv(seed)) {
    gate(report, run.fnv == *pinned, "stream fingerprint equals the pinned one");
  } else {
    std::printf("no pinned stream fingerprint for seed %" PRIu64 "\n", seed);
  }
}

}  // namespace

void run_stream_ctc(const RunContext& ctx) {
  Report& report = *ctx.report;
  const std::string path = ctx.scratch + "/stream.jwb1";
  double offered_load = 0.0;
  const SetupTime setup = median_setup(3, [&] {
    const Clock::time_point t0 = Clock::now();
    offered_load = encode_trace(path, ctx.seed);
    return seconds_since(t0);
  });
  const std::uint64_t bytes = file_bytes(path);
  std::printf("workload: CtcJobSource seed=%" PRIu64 ", %zu jobs at %d nodes, "
              "offered load %.3f, JWB1 %" PRIu64 " bytes; setup %.3f s\n",
              ctx.seed, kJobs, kMachineNodes, offered_load, bytes, setup.seconds);

  if (!ctx.trace) {
    std::vector<StreamRun> runs;
    const Repetitions reps = repeat_within(ctx.seconds, [&](SpeedSampler& s) {
      const int span = ctx.spans->open("stream.simulate_stream");
      runs.push_back(plain_stream(path, &s));
      ctx.spans->close(span);
      std::printf("simulate_stream: fnv %016" PRIx64 "\n", runs.back().fnv);
      return runs.back().wall;
    });
    report.note_attempted(runs.size() * kJobs);
    bool same = true;
    for (const StreamRun& r : runs) same = same && r.fnv == runs.front().fnv;
    gate(report, same, "every repetition has the same fingerprint");
    check_run(report, runs.front(), ctx.seed);
    emit_end_to_end(report, setup, reps, static_cast<double>(kJobs));
    return;
  }

  LayerReport layers;
  layers.set("workload.gen_s", setup.seconds);
  layers.set("workload.offered_load", offered_load);
  const StreamRun plain = plain_stream(path);
  report.note_attempted(2 * kJobs);
  check_run(report, plain, ctx.seed);

  CoreTrace core;
  Tally next, fold, simulate;
  workload::BinaryJobSource binary(path);
  TracedSource source(binary, next);
  const auto scheduler = make_traced_scheduler(fcfs_easy(), core);
  metrics::StreamingAggregator aggregator(kMachineNodes);
  TracedSink sink(aggregator, fold);
  const int span = ctx.spans->open("stream.traced");
  const Clock::time_point t0 = Clock::now();
  sim::StreamStats stats;
  {
    Timed t(simulate);
    stats = sim::simulate_stream(sim::Machine{kMachineNodes}, *scheduler,
                                 source, sink);
  }
  const double fold_in_kernel = fold.seconds;
  std::uint64_t fnv = 0;
  {
    Timed t(fold);
    fnv = aggregator.finish().schedule_fnv;
  }
  const double traced_wall = seconds_since(t0);
  ctx.spans->close(span);
  gate(report, fnv == plain.fnv,
       "traced stream (bench-built ListScheduler) reproduces the plain "
       "fingerprint");

  layers.add_core(core);
  layers.set("sim.kernel_self_s", simulate.seconds - core.seconds() -
                                      next.seconds - fold_in_kernel);
  layers.set("sim.rounds", static_cast<double>(core.next_wakeup_calls));
  layers.set("sim.peak_live_jobs", static_cast<double>(stats.peak_live_jobs));
  layers.set("workload.next_s", next.seconds);
  layers.set("workload.jobs", static_cast<double>(stats.jobs));
  layers.set("workload.bytes_per_job",
             static_cast<double>(bytes) / static_cast<double>(stats.jobs));
  layers.set("metrics.fold_s", fold.seconds);
  layers.finish(report, traced_wall, plain.wall);
}

}  // namespace perfbench
