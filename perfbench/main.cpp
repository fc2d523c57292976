// perfbench: the jsched benchmark program.
//
//   perfbench --workload <grid_ctc|stream_ctc|serve_backlog|serve_resilient>
//             --seed <n> --seconds <s> --trace <0|1> --scratch <dir>
//             [--spans <file>]
//
// Prints progress and every metric by name and unit, and as its last line
// one JSON object {"correct", "attempted", "failed", "metrics"}: with
// --trace 0 the end-to-end metrics of plain runs, with --trace 1 the
// per-layer split of a traced run. Exits 1 when a correctness gate fails,
// 2 on bad arguments. perfbench/run.py builds this binary and calls it.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "core/factory.h"
#include "workloads.h"

namespace perfbench {

LayerReport::LayerReport() {
  const char* s = "s";
  const char* n = "count";
  order_ = {
      {"core.on_submit_s", s}, {"core.on_submit_calls", n},
      {"core.on_complete_s", s}, {"core.on_complete_calls", n},
      {"core.select_starts_s", s}, {"core.select_starts_calls", n},
      {"core.next_wakeup_calls", n},
      {"core.on_capacity_change_s", s}, {"core.on_capacity_change_calls", n},
      {"core.ordering_s", s}, {"core.dispatch_s", s},
      {"core.queue_peak", n},
      {"core.cons.replans", n}, {"core.cons.replaced", n},
      {"core.cons.reused", n}, {"core.cons.certified", n},
      {"core.cons.cursor_restarts", n}, {"core.cons.reuse_ratio", "ratio"},
  };
  for (const auto& spec : core::paper_grid(core::WeightKind::kUnit)) {
    order_.emplace_back("core.sched_s." + config_slug(spec), s);
  }
  const std::vector<std::pair<std::string, std::string>> rest = {
      {"sim.kernel_self_s", s}, {"sim.rounds", n},
      {"sim.validate_s", s}, {"sim.fingerprint_s", s},
      {"sim.peak_live_jobs", n},
      {"workload.next_s", s}, {"workload.jobs", n},
      {"workload.bytes_per_job", "B/job"}, {"workload.gen_s", s},
      {"workload.offered_load", "ratio"},
      {"metrics.fold_s", s}, {"metrics.objectives_s", s},
      {"eval.harness_s", s},
      {"serve.feed_poll_s", s}, {"serve.decisions", n},
      {"serve.peak_admission_queue", n},
      {"serve.journal_appends", n}, {"serve.journal_bytes", "B"},
      {"serve.journal_open_s", s}, {"serve.replay_s", s},
      {"serve.replayed_decisions", n}, {"serve.journal_s", s},
      {"serve.decision_p50_us", "us"}, {"serve.decision_p99_us", "us"},
      {"serve.decision_p999_us", "us"}, {"serve.recovery_s", s},
      {"fault.killed", n}, {"fault.requeued", n},
      {"fault.capacity_events", n}, {"fault.wasted_node_s", "node_s"},
      {"fault.gen_s", s},
      {"unattributed_s", s}, {"trace.wall_s", s}, {"trace.plain_wall_s", s},
      {"trace.overhead", "ratio"},
  };
  order_.insert(order_.end(), rest.begin(), rest.end());
  for (const auto& [name, unit] : order_) values_[name] = 0.0;
}

void LayerReport::set(const std::string& name, double value) {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    throw std::logic_error("LayerReport: undeclared metric " + name);
  }
  it->second = value;
}

void LayerReport::add_core(const CoreTrace& c) {
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  core_seconds_ = c.seconds();
  set("core.on_submit_s", c.on_submit.seconds);
  set("core.on_submit_calls", d(c.on_submit.calls));
  set("core.on_complete_s", c.on_complete.seconds);
  set("core.on_complete_calls", d(c.on_complete.calls));
  set("core.select_starts_s", c.select_starts.seconds);
  set("core.select_starts_calls", d(c.select_starts.calls));
  set("core.next_wakeup_calls", d(c.next_wakeup_calls));
  set("core.on_capacity_change_s", c.on_capacity_change.seconds);
  set("core.on_capacity_change_calls", d(c.on_capacity_change.calls));
  set("core.ordering_s", c.ordering.seconds);
  set("core.dispatch_s", c.dispatch.seconds);
  set("core.queue_peak", d(c.queue_peak));
  set("core.cons.replans", d(c.cons.replans));
  set("core.cons.replaced", d(c.cons.replaced));
  set("core.cons.reused", d(c.cons.reused));
  set("core.cons.certified", d(c.cons.certified));
  set("core.cons.cursor_restarts", d(c.cons.cursor_restarts));
  const std::uint64_t placed = c.cons.reused + c.cons.replaced;
  set("core.cons.reuse_ratio", placed == 0 ? 0.0 : d(c.cons.reused) / d(placed));
}

double LayerReport::attributed_seconds() const {
  // Layer self times that partition the traced wall. core.sched_s.* and
  // the ordering/dispatch split are views of the core total; setup-time
  // figures (gen_s), plain-run figures and derived differences
  // (journal_s, harness_s) lie outside the traced wall.
  static const char* const kSelf[] = {
      "sim.kernel_self_s", "sim.validate_s",
      "sim.fingerprint_s", "workload.next_s", "metrics.fold_s",
      "metrics.objectives_s", "serve.feed_poll_s", "serve.journal_open_s"};
  double sum = 0.0;
  for (const char* name : kSelf) sum += values_.at(name);
  return sum + core_seconds_;
}

void LayerReport::finish(Report& report, double traced_wall,
                         double plain_wall) {
  const double unattributed = traced_wall - attributed_seconds();
  set("unattributed_s", unattributed);
  set("trace.wall_s", traced_wall);
  set("trace.plain_wall_s", plain_wall);
  set("trace.overhead", traced_wall / plain_wall);
  std::printf("traced wall %.3f s = layer self times %.3f s + unattributed "
              "%.6f s; tracing overhead %.3fx\n",
              traced_wall, attributed_seconds(), unattributed,
              traced_wall / plain_wall);
  gate(report, unattributed > -1e-3 * traced_wall,
       "layer self times sum to no more than the traced wall");
  for (const auto& [name, unit] : order_) {
    report.add(name, values_.at(name), unit);
  }
}

void gate(Report& report, bool ok, const std::string& what) {
  report.note_attempted(1);
  if (ok) {
    std::printf("gate ok: %s\n", what.c_str());
  } else {
    report.note_failed(1);
    report.fail_gate(what);
  }
}

void emit_end_to_end(Report& report, const SetupTime& setup,
                     const Repetitions& reps, double jobs) {
  std::vector<double> rates;
  for (const double wall : reps.scaled) rates.push_back(jobs / wall);
  report.add("setup_s", setup.scaled, "s");
  report.add("scaled_wall_s", median(reps.scaled), "s");
  report.add("scaled_jobs_per_s", median(rates), "1/s");
  report.add("peak_rss_mib", reps.peak_rss_mib, "MiB");
}

}  // namespace perfbench

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --scratch <dir> [--spans <file>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::string spans_path;
  RunContext ctx;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        workload = value;
      } else if (key == "--seed") {
        ctx.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        ctx.seconds = std::stod(value);
      } else if (key == "--trace") {
        ctx.trace = std::stoi(value) != 0;
      } else if (key == "--scratch") {
        ctx.scratch = value;
      } else if (key == "--spans") {
        spans_path = value;
      } else {
        return usage(("unknown option " + key).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (argc % 2 != 1) return usage("options take one value each");
  if (!have_seed || ctx.scratch.empty() || !(ctx.seconds > 0)) {
    return usage("--seed, --seconds and --scratch are required");
  }

  SpanLog spans;
  Report report;
  ctx.spans = &spans;
  ctx.report = &report;
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", workload.c_str(),
              static_cast<unsigned long long>(ctx.seed), ctx.seconds,
              ctx.trace ? 1 : 0);
  try {
    if (workload == "grid_ctc") {
      run_grid_ctc(ctx);
    } else if (workload == "stream_ctc") {
      run_stream_ctc(ctx);
    } else if (workload == "serve_backlog") {
      run_serve_backlog(ctx);
    } else if (workload == "serve_resilient") {
      run_serve_resilient(ctx);
    } else {
      return usage(("unknown workload '" + workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(),
                 e.what());
    return 1;
  }
  if (!spans_path.empty() && !spans.write_json(spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 spans_path.c_str());
  }
  report.print();
  return report.correct() ? 0 : 1;
}
