// The benchmark's workloads. Each one generates its inputs from the seed
// (timed as setup), measures plain runs through a public entry point for
// the end-to-end metrics, checks the outputs, and — in a traced run —
// repeats the workload once through the traced wrappers to split the wall
// time into layers.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ledger.h"
#include "wrappers.h"

namespace perfbench {

/// Every workload runs on a 256-node machine, the width the paper's CTC
/// trace is trimmed to.
inline constexpr int kMachineNodes = 256;

struct RunContext {
  std::uint64_t seed = 0;
  double seconds = 10.0;  // measuring budget for the plain repetitions
  bool trace = false;
  std::string scratch;    // temp directory (JWB1 trace, journals)
  SpanLog* spans = nullptr;
  Report* report = nullptr;
};

/// The per-layer figures of one traced run, printed in a fixed order so
/// every workload reports the same metric names (0 where a layer is idle).
class LayerReport {
 public:
  LayerReport();
  void set(const std::string& name, double value);
  void add_core(const CoreTrace& core);
  /// Sum of the layer self times recorded so far (excludes counts and the
  /// nested core.ordering_s / core.dispatch_s split).
  double attributed_seconds() const;
  /// Sets the trace.* figures and unattributed_s (the traced wall minus
  /// every layer self time), gates that the self times do not exceed the
  /// wall (no time counted twice), and emits every per-layer metric.
  void finish(Report& report, double traced_wall, double plain_wall);

 private:
  std::vector<std::pair<std::string, std::string>> order_;  // name, unit
  std::map<std::string, double> values_;
  double core_seconds_ = 0.0;  // every Scheduler callback, reset included
};

/// The plain repetitions: measured wall times (probing excluded), the same
/// at reference speed, and the process's peak RSS right after the first
/// (later repetitions only re-touch freed memory, so this keeps the figure
/// independent of how many repetitions fit).
struct Repetitions {
  std::vector<double> walls;
  std::vector<double> scaled;
  double peak_rss_mib = 0.0;
};

/// Runs `rep` at least once, then again while another repetition is
/// expected to end within `budget` seconds of the first start. `rep` takes
/// a SpeedSampler to call from its entry point's hooks and returns its
/// wall seconds; the sampler also probes right before and after it.
/// Prints each repetition's wall, process CPU time (equal to the wall when
/// the run was not descheduled) and probes.
template <class Rep>
Repetitions repeat_within(double budget, Rep&& rep) {
  Repetitions r;
  const Clock::time_point t0 = Clock::now();
  do {
    SpeedSampler sampler;
    sampler.sample();
    const double probing_before = sampler.probing();
    const double cpu0 = cpu_seconds();
    const double measured = rep(sampler);
    const double cpu = cpu_seconds() - cpu0;
    const double wall = measured - (sampler.probing() - probing_before);
    if (r.walls.empty()) r.peak_rss_mib = perfbench::peak_rss_mib();
    sampler.sample();
    r.walls.push_back(wall);
    r.scaled.push_back(wall * kProbeReference / sampler.mean_probe());
    std::printf("repetition %zu: wall %.4f s without probing, cpu %.4f s, "
                "%zu probes of mean %.4f s, %.4f s at reference speed\n",
                r.walls.size(), wall, cpu, sampler.samples(),
                sampler.mean_probe(), r.scaled.back());
  } while (seconds_since(t0) + median(r.walls) <= budget);
  return r;
}

/// Median setup time, measured and at reference speed.
struct SetupTime {
  double seconds = 0.0;
  double scaled = 0.0;
};

/// Runs `setup` (returning its own seconds) at least `min_reps` times and
/// until half a second has gone by (at most 200 times), between two
/// probes; the median stays steady even when one setup takes milliseconds.
template <class Setup>
SetupTime median_setup(int min_reps, Setup&& setup) {
  std::vector<double> s;
  SpeedSampler sampler;
  sampler.sample();
  const Clock::time_point t0 = Clock::now();
  while (static_cast<int>(s.size()) < min_reps ||
         (seconds_since(t0) < 0.5 && s.size() < 200)) {
    s.push_back(setup());
  }
  sampler.sample();
  SetupTime t;
  t.seconds = median(s);
  t.scaled = t.seconds * kProbeReference / sampler.mean_probe();
  std::printf("setup: median %.5f s of %zu, %.5f s at reference speed\n",
              t.seconds, s.size(), t.scaled);
  return t;
}

/// Records an equality gate: counts it as attempted, and as failed (with
/// the run marked incorrect) when `ok` is false.
void gate(Report& report, bool ok, const std::string& what);

/// Emits the end-to-end metrics shared by every workload, all medians at
/// reference speed: setup time, repetition wall time and jobs completed
/// per second (`jobs` per repetition); plus peak RSS.
void emit_end_to_end(Report& report, const SetupTime& setup,
                     const Repetitions& reps, double jobs);

void run_grid_ctc(const RunContext& ctx);
void run_stream_ctc(const RunContext& ctx);
void run_serve_backlog(const RunContext& ctx);
void run_serve_resilient(const RunContext& ctx);

}  // namespace perfbench
