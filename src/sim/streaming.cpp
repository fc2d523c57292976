#include "sim/streaming.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace jsched::sim {

StreamStats simulate_stream(const Machine& machine, Scheduler& scheduler,
                            workload::JobSource& source, RecordSink& sink,
                            const StreamOptions& options) {
  machine.validate();
  JobWindow window;
  EventCore kernel(machine, scheduler, window, sink, options.faults,
                   options.measure_scheduler_cpu);
  StreamStats stats;

  // One-job lookahead into the source, validated as it is pulled: the
  // stream must carry the finalized-Workload invariants.
  Job pending;
  bool has_pending = false;
  Time prev_submit = 0;
  JobId expected = 0;  // id the next pulled job must carry
  const auto pull = [&] {
    has_pending = source.next(pending);
    if (!has_pending) return;
    if (pending.id != expected) {
      throw std::invalid_argument(
          "simulate: source emitted job id " + std::to_string(pending.id) +
          " where " + std::to_string(expected) + " was expected (ids must be "
          "dense and in order)");
    }
    if (pending.submit < prev_submit) {
      throw std::invalid_argument("simulate: source emitted job " +
                                  std::to_string(pending.id) +
                                  " with a decreasing submit time");
    }
    if (const auto field = invalid_job_field(pending)) {
      throw std::invalid_argument("simulate: source emitted job " +
                                  std::to_string(pending.id) +
                                  " with an invalid " + field_name(*field) +
                                  " field");
    }
    if (pending.nodes > machine.nodes) {
      throw std::invalid_argument(
          "simulate: workload contains jobs wider than the machine; "
          "trim_to_machine() first");
    }
    prev_submit = pending.submit;
    ++expected;
  };
  pull();

  while (has_pending || kernel.undone() > 0) {
    const Time t =
        kernel.next_event(has_pending ? pending.submit : kTimeInfinity);
    if (t == kTimeInfinity) kernel.starved();
    kernel.begin(t);
    while (has_pending && pending.submit == t) {
      kernel.arrive(window.push(pending), t);
      stats.peak_live_jobs = std::max(stats.peak_live_jobs, window.size());
      pull();
    }
    kernel.finish(t);
    window.trim(kernel.frontier());
  }

  stats.jobs = kernel.frontier();
  stats.makespan = kernel.makespan();
  stats.scheduler_cpu_seconds = kernel.scheduler_cpu_seconds();
  stats.max_queue_length = kernel.max_queue_length();
  return stats;
}

}  // namespace jsched::sim
