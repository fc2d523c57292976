#include "sim/simulator.h"

#include <stdexcept>

#include "sim/event_core.h"

namespace jsched::sim {
namespace {

/// The batch driver's storage: jobs stay in the Workload and records are
/// written in place into the Schedule, which also collects the attempts and
/// capacity steps.
class ScheduleTable final : public JobTable, public RecordSink {
 public:
  ScheduleTable(const workload::Workload& workload, Schedule& schedule)
      : workload_(workload), schedule_(schedule) {}

  const Job& job(JobId id) const override { return workload_.job(id); }
  JobRecord& record(JobId id) override { return schedule_.record(id); }

  void on_record(JobId, const JobRecord&, const Job&) override {}
  void on_attempt(const AttemptRecord& attempt) override {
    schedule_.attempts.push_back(attempt);
  }
  void on_capacity_event(Time t, int capacity) override {
    schedule_.capacity_events.emplace_back(t, capacity);
  }

 private:
  const workload::Workload& workload_;
  Schedule& schedule_;
};

}  // namespace

Schedule simulate(const Machine& machine, Scheduler& scheduler,
                  const workload::Workload& workload,
                  const SimOptions& options) {
  machine.validate();
  if (workload.max_nodes() > machine.nodes) {
    throw std::invalid_argument(
        "simulate: workload contains jobs wider than the machine; "
        "trim_to_machine() first");
  }
  Schedule schedule(machine, workload.size(), scheduler.name());
  ScheduleTable table(workload, schedule);
  EventCore kernel(machine, scheduler, table, table, options.faults,
                   options.measure_scheduler_cpu);

  const std::size_t n = workload.size();
  std::size_t next = 0;
  while (next < n || kernel.undone() > 0) {
    const Time t =
        kernel.next_event(next < n ? workload[next].submit : kTimeInfinity);
    if (t == kTimeInfinity) kernel.starved();
    kernel.begin(t);
    for (; next < n && workload[next].submit == t; ++next) {
      kernel.arrive(workload[next], t);
    }
    kernel.finish(t);
  }

  schedule.scheduler_cpu_seconds = kernel.scheduler_cpu_seconds();
  schedule.max_queue_length = kernel.max_queue_length();
  if (options.validate) validate_schedule(schedule, workload);
  return schedule;
}

}  // namespace jsched::sim
