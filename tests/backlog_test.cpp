// The §6.1 backlog indicator: every driver of the event kernel reports the
// same peak scheduler queue length for the same workload.
#include <gtest/gtest.h>

#include "core/factory.h"
#include "metrics/streaming.h"
#include "serve/daemon.h"
#include "serve/feed.h"
#include "sim/simulator.h"
#include "sim/streaming.h"
#include "test_support.h"
#include "workload/job_source.h"

namespace jsched::sim {
namespace {

using test::make_job;

TEST(Backlog, FourFullMachineJobsPeakAtThreeWaiting) {
  // Four full-machine jobs at once: one runs, three wait.
  const auto w = test::make_workload({
      make_job(0, 8, 100),
      make_job(0, 8, 100),
      make_job(0, 8, 100),
      make_job(0, 8, 100),
  });
  Machine m;
  m.nodes = 8;
  const core::AlgorithmSpec spec;

  auto sched = core::make_scheduler(spec);
  EXPECT_EQ(simulate(m, *sched, w).max_queue_length, 3u) << "simulate";

  workload::WorkloadSource source(w);
  metrics::StreamingAggregator aggregator(m.nodes);
  EXPECT_EQ(simulate_stream(m, *sched, source, aggregator).max_queue_length,
            3u)
      << "simulate_stream";

  workload::WorkloadSource served(w);
  serve::JobSourceFeed feed(served);
  serve::ServeOptions options;
  options.machine = m;
  options.spec = spec;
  const serve::ServeReport report = serve::serve(feed, options);
  EXPECT_EQ(report.completed, 4u);
  EXPECT_EQ(report.peak_scheduler_queue, 3u) << "serve";
}

}  // namespace
}  // namespace jsched::sim
