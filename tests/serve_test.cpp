// The serve subsystem: protocol parsing, feeds, the daemon's decision
// loop, overload behavior, and the load generator.
//
// The headline test is bit-identity: serving a replayed trace through
// serve() must produce the *same schedule fingerprint* as the offline
// simulator on the same workload — the daemon is the simulator core
// behind a feed, not a reimplementation. Overload tests pin *exact* shed
// counts and queue depths (the admission path is deterministic), and the
// paced tests run under util::ManualClock so no test ever actually waits.
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/factory.h"
#include "fault/fault.h"
#include "metrics/streaming.h"
#include "serve/daemon.h"
#include "serve/feed.h"
#include "serve/loadgen.h"
#include "serve/report.h"
#include "sim/streaming.h"
#include "util/clock.h"
#include "workload/ctc_model.h"
#include "workload/job_source.h"
#include "test_support.h"
#include "workload/transforms.h"

namespace jsched {
namespace {

using serve::OverloadPolicy;
using serve::ParseResult;
using serve::ServeOptions;
using serve::ServeReport;
using serve::SubmitRecord;
using test::ScriptFeed;

core::AlgorithmSpec fcfs_with(core::DispatchKind dispatch) {
  core::AlgorithmSpec spec;
  spec.order = core::OrderKind::kFcfs;
  spec.dispatch = dispatch;
  return spec;
}

/// n identical 1-node jobs submitted at t = 0 (the canonical burst).
std::vector<SubmitRecord> burst(std::size_t n, Duration runtime = 100) {
  std::vector<SubmitRecord> records(n);
  for (SubmitRecord& r : records) {
    r.submit = 0;
    r.nodes = 1;
    r.runtime = runtime;
    r.estimate = runtime;
  }
  return records;
}

// ---------------------------------------------------------------- protocol

TEST(Serve, ParsesTimedRecord) {
  SubmitRecord r;
  ASSERT_EQ(serve::parse_submit_line("@120 8 3600 7200 42", r),
            ParseResult::kRecord);
  EXPECT_EQ(r.submit, 120);
  EXPECT_EQ(r.nodes, 8);
  EXPECT_EQ(r.runtime, 3600);
  EXPECT_EQ(r.estimate, 7200);
  EXPECT_EQ(r.user, 42);
}

TEST(Serve, ParsesLiveRecordWithDefaultUser) {
  SubmitRecord r;
  ASSERT_EQ(serve::parse_submit_line("4 60 300", r), ParseResult::kRecord);
  EXPECT_EQ(r.submit, -1);
  EXPECT_EQ(r.nodes, 4);
  EXPECT_EQ(r.runtime, 60);
  EXPECT_EQ(r.estimate, 300);
  EXPECT_EQ(r.user, 0);
}

TEST(Serve, ParseSkipsCommentsAndBlanks) {
  SubmitRecord r;
  EXPECT_EQ(serve::parse_submit_line("", r), ParseResult::kSkip);
  EXPECT_EQ(serve::parse_submit_line("   ", r), ParseResult::kSkip);
  EXPECT_EQ(serve::parse_submit_line("# a comment", r), ParseResult::kSkip);
}

TEST(Serve, ParseRecognizesEndSentinel) {
  SubmitRecord r;
  EXPECT_EQ(serve::parse_submit_line("end", r), ParseResult::kEnd);
}

TEST(Serve, ParseStripsCarriageReturn) {
  SubmitRecord r;
  ASSERT_EQ(serve::parse_submit_line("2 10 10\r", r), ParseResult::kRecord);
  EXPECT_EQ(r.nodes, 2);
}

TEST(Serve, ParseRejectsMalformedLines) {
  SubmitRecord r;
  std::string error;
  EXPECT_EQ(serve::parse_submit_line("1 2", r, &error), ParseResult::kError);
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(serve::parse_submit_line("one two three", r), ParseResult::kError);
  EXPECT_EQ(serve::parse_submit_line("0 10 10", r), ParseResult::kError);
  EXPECT_EQ(serve::parse_submit_line("1 0 10", r), ParseResult::kError);
  EXPECT_EQ(serve::parse_submit_line("1 10 0", r), ParseResult::kError);
  EXPECT_EQ(serve::parse_submit_line("@-5 1 10 10", r), ParseResult::kError);
  EXPECT_EQ(serve::parse_submit_line("1 2 3 4 5 6", r), ParseResult::kError);

  // Fields that do not fit the job model: nodes and user are int32, and
  // times stop at 10^15 s, so nothing narrows or overflows downstream.
  const auto rejects = [&](const std::string& line, const std::string& why) {
    SCOPED_TRACE(line);
    error.clear();
    EXPECT_EQ(serve::parse_submit_line(line, r, &error), ParseResult::kError);
    EXPECT_NE(error.find(why), std::string::npos) << error;
  };
  rejects("4294967304 10 10", "bad nodes field");
  rejects("2147483648 10 10", "bad nodes field");
  rejects("1 10 10 4294967297", "bad user field");
  rejects("1 10 10 -2147483649", "bad user field");
  rejects("@10 1 9223372036854775802 9223372036854775802",
          "bad runtime field");
  rejects("@10 1 10 1000000000000001", "bad estimate field");
  rejects("@1000000000000001 1 10 10", "bad @submit field");

  // The bounds themselves are accepted.
  ASSERT_EQ(serve::parse_submit_line(
                "@1000000000000000 2147483647 1000000000000000 "
                "1000000000000000 -2147483648",
                r),
            ParseResult::kRecord);
  EXPECT_EQ(r.submit, 1'000'000'000'000'000);
  EXPECT_EQ(r.nodes, 2147483647);
  EXPECT_EQ(r.runtime, 1'000'000'000'000'000);
  EXPECT_EQ(r.estimate, 1'000'000'000'000'000);
  EXPECT_EQ(r.user, -2147483647 - 1);
}

TEST(Serve, ScriptFeedRejectsUnsortedOrLiveRecords) {
  std::vector<SubmitRecord> unsorted(2);
  unsorted[0].submit = 10;
  unsorted[1].submit = 5;
  EXPECT_THROW(ScriptFeed feed(unsorted), std::invalid_argument);

  std::vector<SubmitRecord> live(1);  // submit = -1
  EXPECT_THROW(ScriptFeed feed(live), std::invalid_argument);
}

// ------------------------------------------------------------ bit-identity

metrics::StreamedMetrics run_offline(const core::AlgorithmSpec& spec,
                                     const workload::Workload& w, int nodes) {
  const sim::Machine machine{nodes};
  auto scheduler = core::make_scheduler(spec);
  workload::WorkloadSource source(w);
  metrics::StreamingAggregator aggregator(machine.nodes);
  sim::simulate_stream(machine, *scheduler, source, aggregator, {});
  return aggregator.finish();
}

ServeReport run_served(const core::AlgorithmSpec& spec,
                       const workload::Workload& w, int nodes) {
  workload::WorkloadSource source(w);
  serve::JobSourceFeed feed(source);
  ServeOptions options;
  options.machine.nodes = nodes;
  options.spec = spec;
  options.speed = 0;  // free-run
  return serve::serve(feed, options);
}

const workload::Workload& replay_workload() {
  static const workload::Workload w = [] {
    workload::CtcModelParams params;
    params.job_count = 1500;
    return workload::trim_to_machine(workload::generate_ctc(params, 1999),
                                     256);
  }();
  return w;
}

TEST(Serve, ReplayIsBitIdenticalToOfflineSimulatorEasy) {
  const auto& w = replay_workload();
  const metrics::StreamedMetrics offline =
      run_offline(fcfs_with(core::DispatchKind::kEasy), w, 256);
  const ServeReport served =
      run_served(fcfs_with(core::DispatchKind::kEasy), w, 256);

  ASSERT_TRUE(served.has_metrics);
  EXPECT_EQ(served.submitted, w.size());
  EXPECT_EQ(served.completed, w.size());
  EXPECT_EQ(served.schedule_fnv, offline.schedule_fnv);
  EXPECT_EQ(served.metrics.art, offline.art);    // bit-identical
  EXPECT_EQ(served.metrics.awrt, offline.awrt);  // bit-identical
  EXPECT_EQ(served.metrics.makespan, offline.makespan);
  EXPECT_EQ(served.virtual_makespan, offline.makespan);
  EXPECT_EQ(served.shed_capacity + served.shed_backlog, 0u);
  EXPECT_EQ(served.decision_latency_ns.count(), served.decisions);
  EXPECT_GT(served.decisions, 0u);
}

TEST(Serve, ReplayIsBitIdenticalToOfflineSimulatorConservative) {
  const auto& w = replay_workload();
  const metrics::StreamedMetrics offline =
      run_offline(fcfs_with(core::DispatchKind::kConservative), w, 256);
  const ServeReport served =
      run_served(fcfs_with(core::DispatchKind::kConservative), w, 256);

  ASSERT_TRUE(served.has_metrics);
  EXPECT_EQ(served.completed, w.size());
  EXPECT_EQ(served.schedule_fnv, offline.schedule_fnv);
  EXPECT_EQ(served.metrics.art, offline.art);
  EXPECT_EQ(served.metrics.utilization, offline.utilization);
}

TEST(Serve, FreeRunKeepsAdmissionQueueBounded) {
  // The whole point of poll_at = min(t, next_submit): a replayed trace
  // streams through the daemon instead of being inhaled into the queue.
  const auto& w = replay_workload();
  workload::WorkloadSource source(w);
  serve::JobSourceFeed feed(source);
  ServeOptions options;
  options.machine.nodes = 256;
  options.spec = fcfs_with(core::DispatchKind::kEasy);
  options.queue_capacity = 64;
  const ServeReport report = serve::serve(feed, options);
  EXPECT_EQ(report.completed, w.size());
  EXPECT_LE(report.peak_admission_queue, 64u);
  // Arrivals are spread in time, so the queue never even approaches the
  // workload size.
  EXPECT_LT(report.peak_admission_queue, w.size() / 4);
}

// ---------------------------------------------------------------- overload

TEST(Serve, ShedPolicyDropsExactOverflowOfABurst) {
  ScriptFeed feed(burst(10));
  ServeOptions options;
  options.machine.nodes = 16;
  options.spec = fcfs_with(core::DispatchKind::kEasy);
  options.queue_capacity = 4;
  options.overload = OverloadPolicy::kShed;
  const ServeReport report = serve::serve(feed, options);

  EXPECT_EQ(report.shed_capacity, 6u);  // 10 arrive, 4 fit
  EXPECT_EQ(report.shed_backlog, 0u);
  EXPECT_EQ(report.submitted, 4u);
  EXPECT_EQ(report.completed, 4u);
  EXPECT_EQ(report.peak_admission_queue, 4u);
  EXPECT_EQ(report.delayed_admissions, 0u);
}

TEST(Serve, BlockPolicyDelaysButNeverDropsABurst) {
  ScriptFeed feed(burst(10));
  ServeOptions options;
  options.machine.nodes = 16;
  options.spec = fcfs_with(core::DispatchKind::kEasy);
  options.queue_capacity = 4;
  options.overload = OverloadPolicy::kBlock;
  const ServeReport report = serve::serve(feed, options);

  EXPECT_EQ(report.shed_capacity, 0u);
  EXPECT_EQ(report.submitted, 10u);  // everyone gets in eventually
  EXPECT_EQ(report.completed, 10u);
  EXPECT_EQ(report.delayed_admissions, 6u);  // 10 arrive, 4 fit immediately
  EXPECT_EQ(report.peak_admission_queue, 4u);
}

TEST(Serve, MaxBacklogShedsAcrossBothQueues) {
  // One node, serial 50 s jobs: the backlog guard counts the scheduler's
  // queue too, so only 3 of the 10 burst jobs are ever admitted.
  ScriptFeed feed(burst(10, /*runtime=*/50));
  ServeOptions options;
  options.machine.nodes = 1;
  options.spec = fcfs_with(core::DispatchKind::kEasy);
  options.queue_capacity = 16;
  options.overload = OverloadPolicy::kShed;
  options.max_backlog = 3;
  const ServeReport report = serve::serve(feed, options);

  EXPECT_EQ(report.shed_backlog, 7u);
  EXPECT_EQ(report.shed_capacity, 0u);
  EXPECT_EQ(report.submitted, 3u);
  EXPECT_EQ(report.completed, 3u);
}

TEST(Serve, RejectsJobsWiderThanTheMachine) {
  std::vector<SubmitRecord> records = burst(3);
  records[1].nodes = 500;  // machine has 16
  ScriptFeed feed(records);
  ServeOptions options;
  options.machine.nodes = 16;
  options.spec = fcfs_with(core::DispatchKind::kEasy);
  const ServeReport report = serve::serve(feed, options);

  EXPECT_EQ(report.rejected_invalid, 1u);
  EXPECT_EQ(report.submitted, 2u);
  EXPECT_EQ(report.completed, 2u);
}

TEST(Serve, RejectionLogNamesTheFieldOrTheMachineWidth) {
  std::vector<SubmitRecord> records = burst(2);
  records[0].runtime = kMaxJobSeconds + 1;  // past the job model
  records[1].nodes = 17;                    // machine has 16
  ScriptFeed feed(records);
  ServeOptions options;
  options.machine.nodes = 16;
  options.spec = fcfs_with(core::DispatchKind::kEasy);
  std::vector<std::string> lines;
  options.log = [&lines](const std::string& line) { lines.push_back(line); };
  const ServeReport report = serve::serve(feed, options);

  EXPECT_EQ(report.rejected_invalid, 2u);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("runtime"), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find("machine has 16 nodes"), std::string::npos)
      << lines[1];
}

// ---------------------------------------------------- pacing (ManualClock)

TEST(Serve, PacedRunUnderManualClockIsDeterministic) {
  std::vector<SubmitRecord> records(3);
  for (std::size_t i = 0; i < records.size(); ++i) {
    records[i].submit = static_cast<Time>(10 * i);
    records[i].nodes = 1;
    records[i].runtime = 5;
    records[i].estimate = 5;
  }
  ScriptFeed feed(records);
  util::ManualClock clock;
  ServeOptions options;
  options.machine.nodes = 4;
  options.spec = fcfs_with(core::DispatchKind::kEasy);
  options.speed = 100.0;  // 100 virtual seconds per wall second
  options.clock = &clock;
  const ServeReport report = serve::serve(feed, options);

  EXPECT_EQ(report.completed, 3u);
  EXPECT_EQ(report.virtual_makespan, 25);  // last job: submit 20 + 5 s
  // The fake clock never moves during a decision: latencies read exactly 0.
  EXPECT_EQ(report.decision_latency_ns.max(), 0u);
  // Virtual second 25 at speed 100 falls due 0.25 wall seconds after the
  // epoch; the paced loop slept the fake clock exactly there.
  EXPECT_GE(report.wall_seconds, 0.25);
  EXPECT_LT(report.wall_seconds, 0.30);
}

TEST(Serve, PacedReplayMatchesFreeRunFingerprint) {
  // Pacing changes when decisions happen in wall time, never what they are.
  const auto& w = replay_workload();
  const ServeReport free_run =
      run_served(fcfs_with(core::DispatchKind::kEasy), w, 256);

  workload::WorkloadSource source(w);
  serve::JobSourceFeed feed(source);
  util::ManualClock clock;
  ServeOptions options;
  options.machine.nodes = 256;
  options.spec = fcfs_with(core::DispatchKind::kEasy);
  options.speed = 100000.0;
  options.clock = &clock;
  const ServeReport paced = serve::serve(feed, options);

  EXPECT_EQ(paced.completed, free_run.completed);
  EXPECT_EQ(paced.schedule_fnv, free_run.schedule_fnv);
}

// ------------------------------------------------------------ drain / abort

TEST(Serve, DrainRequestStopsIntakeAndFinishesAdmittedWork) {
  workload::CtcModelParams params;
  params.job_count = 400;
  const workload::Workload w =
      workload::trim_to_machine(workload::generate_ctc(params, 7), 64);
  workload::WorkloadSource source(w);
  serve::JobSourceFeed feed(source);

  int rounds = 0;
  ServeOptions options;
  options.machine.nodes = 64;
  options.spec = fcfs_with(core::DispatchKind::kEasy);
  options.poll_signal = [&rounds]() { return ++rounds > 50 ? 1 : 0; };
  const ServeReport report = serve::serve(feed, options);

  EXPECT_TRUE(report.drained);
  EXPECT_FALSE(report.aborted);
  EXPECT_GT(report.submitted, 0u);
  EXPECT_LT(report.submitted, w.size());  // intake stopped early...
  EXPECT_EQ(report.completed, report.submitted);  // ...but admitted work ran
  ASSERT_TRUE(report.has_metrics);
  EXPECT_NE(report.schedule_fnv, 0u);
}

TEST(Serve, AbortRequestReturnsImmediately) {
  ScriptFeed feed(burst(5));
  ServeOptions options;
  options.machine.nodes = 16;
  options.spec = fcfs_with(core::DispatchKind::kEasy);
  options.poll_signal = []() { return 2; };
  const ServeReport report = serve::serve(feed, options);

  EXPECT_TRUE(report.aborted);
  EXPECT_EQ(report.submitted, 0u);
  EXPECT_FALSE(report.has_metrics);
}

// -------------------------------------------------------------- transports

TEST(Serve, FdLineFeedServesAPipe) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const std::string script =
      "# two timed jobs, one junk line\n"
      "@0 2 10 10\n"
      "this is not a job\n"
      "@5 1 20 30 7\n"
      "end\n";
  ASSERT_EQ(write(fds[1], script.data(), script.size()),
            static_cast<ssize_t>(script.size()));
  close(fds[1]);

  serve::FdLineFeed feed(fds[0], /*tail=*/false, /*close_fd=*/true);
  ServeOptions options;
  options.machine.nodes = 4;
  options.spec = fcfs_with(core::DispatchKind::kEasy);
  const ServeReport report = serve::serve(feed, options);

  EXPECT_EQ(feed.parse_errors(), 1u);
  EXPECT_EQ(report.submitted, 2u);
  EXPECT_EQ(report.completed, 2u);
  // Job 0: [0, 10). Job 1: submits at 5, 2 free nodes, starts at once.
  EXPECT_EQ(report.virtual_makespan, 25);
}

TEST(Serve, IdleLiveFeedSleepsInsteadOfSpinning) {
  // An open pipe with nothing buffered: next_submit() is kTimeInfinity and
  // the local event horizon is too. The replay gate must not fire on
  // inf <= inf — the loop has to fall through to the idle sleep (and in
  // paced mode must never map kTimeInfinity onto the wall clock).
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  serve::FdLineFeed feed(fds[0], /*tail=*/false, /*close_fd=*/true);

  util::ManualClock clock;
  int rounds = 0;
  const int wfd = fds[1];
  ServeOptions options;
  options.machine.nodes = 4;
  options.spec = fcfs_with(core::DispatchKind::kEasy);
  options.speed = 1.0;  // paced — the pre-fix UB path
  options.clock = &clock;
  options.poll_signal = [&rounds, wfd]() {
    if (++rounds == 5) {
      const std::string script = "1 5 5\nend\n";
      EXPECT_EQ(write(wfd, script.data(), script.size()),
                static_cast<ssize_t>(script.size()));
      close(wfd);
    }
    return 0;
  };
  const ServeReport report = serve::serve(feed, options);

  EXPECT_EQ(report.submitted, 1u);
  EXPECT_EQ(report.completed, 1u);
  // The live job was stamped at virtual 0 and ran 5 s; the idle rounds
  // before it arrived slept the daemon's poll interval each on the fake
  // clock, so wall time advanced past the 5 s due point instead of
  // spinning at 0.
  EXPECT_GE(report.wall_seconds, 5.0);
  EXPECT_LT(report.wall_seconds, 6.0);
}

TEST(Serve, FdLineFeedDeliversFinalLineWithoutNewline) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const std::string script = "@0 1 5 5\n@3 2 7 7";  // last line unterminated
  ASSERT_EQ(write(fds[1], script.data(), script.size()),
            static_cast<ssize_t>(script.size()));
  close(fds[1]);

  serve::FdLineFeed feed(fds[0], /*tail=*/false, /*close_fd=*/true);
  std::vector<SubmitRecord> out;
  while (feed.poll(kTimeInfinity, out)) {
  }
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].submit, 3);
  EXPECT_EQ(out[1].nodes, 2);
  EXPECT_EQ(feed.parse_errors(), 0u);
}

TEST(Serve, FdLineFeedEndsOnHardReadError) {
  // A dead descriptor: read() fails with EBADF, not EAGAIN. Even a tail
  // feed must end rather than report "more data coming" forever.
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  close(fds[0]);
  close(fds[1]);
  serve::FdLineFeed feed(fds[0], /*tail=*/true, /*close_fd=*/false);
  std::vector<SubmitRecord> out;
  EXPECT_FALSE(feed.poll(kTimeInfinity, out));
  EXPECT_TRUE(out.empty());
}

TEST(Serve, TcpFeedServesALocalhostClient) {
  serve::TcpFeed feed(0);  // ephemeral port
  ASSERT_GT(feed.port(), 0);

  const int client = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(client, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(feed.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string script = "@0 1 5 5\n@2 2 4 4\nend\n";
  ASSERT_EQ(write(client, script.data(), script.size()),
            static_cast<ssize_t>(script.size()));
  close(client);

  ServeOptions options;
  options.machine.nodes = 4;
  options.spec = fcfs_with(core::DispatchKind::kEasy);
  const ServeReport report = serve::serve(feed, options);

  EXPECT_EQ(report.submitted, 2u);
  EXPECT_EQ(report.completed, 2u);
  EXPECT_EQ(feed.parse_errors(), 0u);
}

TEST(Serve, TcpFeedFlushesClientFinalLineOnClose) {
  serve::TcpFeed feed(0);
  ASSERT_GT(feed.port(), 0);

  const int client = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(client, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(feed.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  // The sentinel lacks its newline; the hangup itself must terminate it,
  // or the daemon would wait on an already-closed client forever.
  const std::string script = "@0 1 2 2\nend";
  ASSERT_EQ(write(client, script.data(), script.size()),
            static_cast<ssize_t>(script.size()));
  close(client);

  ServeOptions options;
  options.machine.nodes = 4;
  options.spec = fcfs_with(core::DispatchKind::kEasy);
  const ServeReport report = serve::serve(feed, options);

  EXPECT_EQ(report.submitted, 1u);
  EXPECT_EQ(report.completed, 1u);
  EXPECT_EQ(feed.parse_errors(), 0u);
}

// ----------------------------------------------------------------- loadgen

std::vector<SubmitRecord> drain_source(serve::OpenLoopSource& source) {
  std::vector<SubmitRecord> all;
  while (source.poll(kTimeInfinity, all)) {
  }
  return all;
}

TEST(Serve, LoadgenIsDeterministicInSeed) {
  serve::OpenLoopConfig config;
  config.rate = 1.0;
  config.job_count = 50;
  config.seed = 123;
  serve::OpenLoopSource a(config);
  serve::OpenLoopSource b(config);
  const auto ra = drain_source(a);
  const auto rb = drain_source(b);

  ASSERT_EQ(ra.size(), 50u);
  ASSERT_EQ(rb.size(), 50u);
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].submit, rb[i].submit);
    EXPECT_EQ(ra[i].nodes, rb[i].nodes);
    EXPECT_EQ(ra[i].runtime, rb[i].runtime);
    EXPECT_EQ(ra[i].estimate, rb[i].estimate);
    EXPECT_EQ(ra[i].user, rb[i].user);
  }
  // Submits are non-decreasing and shapes respect the config bounds.
  for (std::size_t i = 0; i < ra.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(ra[i].submit, ra[i - 1].submit);
    }
    EXPECT_GE(ra[i].nodes, 1);
    EXPECT_LE(ra[i].nodes, config.nodes_max);
    EXPECT_GE(ra[i].runtime, 1);
    EXPECT_GE(ra[i].estimate, ra[i].runtime);
  }
}

TEST(Serve, LoadgenDifferentSeedsDiffer) {
  serve::OpenLoopConfig config;
  config.rate = 1.0;
  config.job_count = 50;
  config.seed = 1;
  serve::OpenLoopSource a(config);
  config.seed = 2;
  serve::OpenLoopSource b(config);
  const auto ra = drain_source(a);
  const auto rb = drain_source(b);
  bool any_diff = false;
  for (std::size_t i = 0; i < std::min(ra.size(), rb.size()); ++i) {
    if (ra[i].submit != rb[i].submit || ra[i].runtime != rb[i].runtime) {
      any_diff = true;
      break;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(Serve, LoadgenCronTemplatesFireOnSchedule) {
  serve::OpenLoopConfig config;
  config.rate = 0.0;  // crons only
  config.horizon = 50;
  serve::CronTemplate cron;
  cron.period = 10;
  cron.offset = 5;
  cron.nodes = 3;
  cron.runtime = 7;
  cron.estimate = 8;
  cron.user = 99;
  config.crons.push_back(cron);
  serve::OpenLoopSource source(config);
  const auto records = drain_source(source);

  ASSERT_EQ(records.size(), 5u);  // 5, 15, 25, 35, 45
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].submit, static_cast<Time>(5 + 10 * i));
    EXPECT_EQ(records[i].nodes, 3);
    EXPECT_EQ(records[i].runtime, 7);
    EXPECT_EQ(records[i].estimate, 8);
    EXPECT_EQ(records[i].user, 99);
  }
}

TEST(Serve, LoadgenValidatesItsConfig) {
  serve::OpenLoopConfig config;
  config.rate = 1.0;  // no horizon, no job_count: unbounded stream
  EXPECT_THROW(serve::OpenLoopSource source(config), std::invalid_argument);

  config.rate = 0.0;  // nothing configured at all
  EXPECT_THROW(serve::OpenLoopSource source(config), std::invalid_argument);

  config.rate = -1.0;
  config.job_count = 10;
  EXPECT_THROW(serve::OpenLoopSource source(config), std::invalid_argument);

  // A cron template is a job shape: it must fit the job model (job.h).
  config.rate = 0.0;
  config.horizon = 100;
  serve::CronTemplate cron;
  cron.period = 10;
  cron.runtime = kMaxJobSeconds + 1;
  cron.estimate = cron.runtime;
  config.crons = {cron};
  EXPECT_THROW(serve::OpenLoopSource source(config), std::invalid_argument);
  config.crons[0].runtime = config.crons[0].estimate = kMaxJobSeconds;
  EXPECT_NO_THROW(serve::OpenLoopSource source(config));
}

TEST(Serve, DaemonServesLoadgenEndToEnd) {
  serve::OpenLoopConfig config;
  config.rate = 0.5;
  config.job_count = 200;
  config.seed = 11;
  config.nodes_max = 16;
  serve::OpenLoopSource source(config);

  ServeOptions options;
  options.machine.nodes = 64;
  options.spec = fcfs_with(core::DispatchKind::kEasy);
  const ServeReport report = serve::serve(source, options);

  EXPECT_EQ(report.submitted, 200u);
  EXPECT_EQ(report.completed, 200u);
  ASSERT_TRUE(report.has_metrics);
  EXPECT_GT(report.metrics.utilization, 0.0);
}

// ------------------------------------------------------------------ report

TEST(Serve, SummaryJsonCarriesTheKeyFields) {
  ScriptFeed feed(burst(4));
  ServeOptions options;
  options.machine.nodes = 16;
  options.spec = fcfs_with(core::DispatchKind::kEasy);
  const ServeReport report = serve::serve(feed, options);

  serve::ServeRunMeta meta;
  meta.label = "test-run";
  meta.source = "script:burst";
  const std::string json = serve::serve_run_json(meta, report, 0);
  EXPECT_NE(json.find("\"label\": \"test-run\""), std::string::npos);
  EXPECT_NE(json.find("\"submitted\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"completed\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"decision_latency_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"schedule_fnv\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  // Fault-free, journal-free runs carry no resilience/recovery sections —
  // the JSON stays byte-compatible with pre-robustness consumers.
  EXPECT_EQ(json.find("\"resilience\""), std::string::npos);
  EXPECT_EQ(json.find("\"recovery\""), std::string::npos);
}

// ------------------------------------------------------------------ faults

TEST(Serve, FaultyServeIsBitIdenticalToFaultySimulator) {
  // Serving a trace under a failure trace must reproduce
  // sim::simulate_stream's faulty schedule bit for bit, with consistent
  // kill/requeue counters.
  const workload::Workload& w = replay_workload();
  const fault::FailureTrace outages = fault::make_failure_trace(
      {{20'000, -64}, {100'000, +64}, {250'000, -128}, {400'000, +128}}, 256);
  fault::FaultOptions faults;
  faults.trace = &outages;

  const sim::Machine machine{256};
  auto scheduler = core::make_scheduler(fcfs_with(core::DispatchKind::kEasy));
  workload::WorkloadSource offline_source(w);
  metrics::StreamingAggregator aggregator(machine.nodes);
  sim::StreamOptions stream_options;
  stream_options.faults = faults;
  sim::simulate_stream(machine, *scheduler, offline_source, aggregator,
                       stream_options);
  const metrics::StreamedMetrics offline = aggregator.finish();

  workload::WorkloadSource source(w);
  serve::JobSourceFeed feed(source);
  ServeOptions options;
  options.machine.nodes = 256;
  options.spec = fcfs_with(core::DispatchKind::kEasy);
  options.speed = 0;
  options.faults = faults;
  const ServeReport served = serve::serve(feed, options);

  EXPECT_EQ(served.schedule_fnv, offline.schedule_fnv);
  EXPECT_EQ(served.metrics.art, offline.art);  // bit-identical
  EXPECT_EQ(served.killed, offline.resilience.kills);
  EXPECT_EQ(served.requeued, served.killed);
  EXPECT_GT(served.killed, 0u);
  EXPECT_EQ(served.capacity_events, outages.events.size());
  EXPECT_EQ(served.min_capacity, 128);
  EXPECT_EQ(served.wasted_node_seconds, offline.resilience.wasted_node_seconds);
  EXPECT_EQ(served.availability, offline.resilience.availability);
}

TEST(Serve, FaultTraceMustMatchTheMachine) {
  const fault::FailureTrace outages =
      fault::make_failure_trace({{10, -1}, {20, +1}}, 8);
  ScriptFeed feed(burst(2));
  ServeOptions options;
  options.machine.nodes = 16;  // trace built for 8
  options.spec = fcfs_with(core::DispatchKind::kEasy);
  options.faults.trace = &outages;
  EXPECT_THROW(serve::serve(feed, options), std::invalid_argument);
}

TEST(Serve, BacklogBoundDegradesWithLostCapacity) {
  // 8 nodes, half of them failed from t=1: the max_backlog guard must
  // tighten proportionally (8 -> 4) instead of queueing against a machine
  // that no longer exists. A late burst then sheds where the fault-free
  // run admits.
  std::vector<SubmitRecord> records;
  for (int i = 0; i < 12; ++i) {
    SubmitRecord r;
    r.submit = 10;
    r.nodes = 1;
    r.runtime = 1000;
    r.estimate = 1000;
    records.push_back(r);
  }
  const auto run = [&](const fault::FaultOptions& faults) {
    ScriptFeed feed(records);
    ServeOptions options;
    options.machine.nodes = 8;
    options.spec = fcfs_with(core::DispatchKind::kEasy);
    options.max_backlog = 8;
    options.faults = faults;
    return serve::serve(feed, options);
  };
  const ServeReport intact = run({});
  EXPECT_EQ(intact.shed_backlog, 4u);  // 12 offered, bound 8

  const fault::FailureTrace outages =
      fault::make_failure_trace({{1, -4}, {100'000, +4}}, 8);
  fault::FaultOptions faults;
  faults.trace = &outages;
  const ServeReport degraded = run(faults);
  EXPECT_EQ(degraded.shed_backlog, 8u);  // bound scaled to 4 survivors
  EXPECT_EQ(degraded.min_capacity, 4);
  EXPECT_LT(degraded.availability, 1.0);
}

// --------------------------------------------------------- feed resilience

int connect_to(std::uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

TEST(Serve, TcpFeedSurvivesFdExhaustion) {
  // Regression: an EMFILE from accept() used to silently stop the accept
  // loop for good. Drop the fd ceiling to 0, let a client knock, and the
  // feed must count a transient error, keep the listener alive, and accept
  // the client once the ceiling lifts.
  serve::TcpFeed feed(0);
  ASSERT_GT(feed.port(), 0);
  // Poll once with nothing to accept (accept4 returns EAGAIN and no state
  // changes) before the ceiling drops: a first call through the poll path
  // may itself need a descriptor (UBSan's vptr check needs one the first
  // time it meets a type pair), and the limited poll below must fail in
  // accept4 alone.
  std::vector<SubmitRecord> out;
  ASSERT_TRUE(feed.poll(kTimeInfinity, out));
  ASSERT_EQ(feed.transient_accept_errors(), 0u);
  const int client = connect_to(feed.port());  // queued in the backlog

  rlimit orig{};
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &orig), 0);
  rlimit tight = orig;
  tight.rlim_cur = 0;  // accept() of the queued client now hits EMFILE
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &tight), 0);

  EXPECT_TRUE(feed.poll(kTimeInfinity, out));
  EXPECT_GT(feed.transient_accept_errors(), 0u);
  EXPECT_TRUE(out.empty());

  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &orig), 0);
  const std::string script = "@0 1 5 5\nend\n";
  ASSERT_EQ(write(client, script.data(), script.size()),
            static_cast<ssize_t>(script.size()));
  // The feed armed a 10ms backoff when accept failed; after it expires the
  // next polls must accept and read the waiting client.
  bool open = true;
  for (int i = 0; i < 100 && out.empty() && open; ++i) {
    usleep(5'000);
    open = feed.poll(kTimeInfinity, out);
  }
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].nodes, 1);
  close(client);
}

TEST(Serve, FdLineFeedInTailModeWaitsPastEofForEnd) {
  // `tail -f` semantics: EOF means "caught up", not "done". An unterminated
  // line waits for its newline, records appended after EOF are delivered,
  // and only `end` closes the feed (the line after it is dropped).
  const std::string path = std::string(::testing::TempDir()) +
                           "serve-tail-" + std::to_string(getpid()) + ".feed";
  const int wfd = open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
  ASSERT_GE(wfd, 0);
  const auto append = [wfd](const std::string& s) {
    ASSERT_EQ(write(wfd, s.data(), s.size()), static_cast<ssize_t>(s.size()));
  };
  append("@0 1 5 5\n@3 2 7");
  const int rfd = open(path.c_str(), O_RDONLY);
  ASSERT_GE(rfd, 0);
  serve::FdLineFeed feed(rfd, /*tail=*/true, /*close_fd=*/true);

  std::vector<SubmitRecord> out;
  EXPECT_TRUE(feed.poll(kTimeInfinity, out));
  EXPECT_TRUE(feed.poll(kTimeInfinity, out));  // at EOF, still open
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].submit, 0);

  append(" 7\nend\n@9 1 1 1\n");
  EXPECT_FALSE(feed.poll(kTimeInfinity, out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].submit, 3);
  EXPECT_EQ(out[1].nodes, 2);
  EXPECT_EQ(out[1].estimate, 7);
  EXPECT_EQ(feed.parse_errors(), 0u);
  close(wfd);
  unlink(path.c_str());
}

TEST(Serve, TcpFeedEndFromOneClientClosesTheWholeFeed) {
  // The shared-cluster model: one client's `end` closes submissions for
  // every client. Lines after it are dropped, and the feed still delivers
  // the record it had queued before it reports the end.
  serve::TcpFeed feed(0);
  ASSERT_GT(feed.port(), 0);
  const int a = connect_to(feed.port());
  const int b = connect_to(feed.port());
  const auto send = [](int fd, const std::string& s) {
    ASSERT_EQ(write(fd, s.data(), s.size()), static_cast<ssize_t>(s.size()));
  };
  std::vector<SubmitRecord> out;
  send(a, "@5 1 1 1\n");
  for (int i = 0; i < 400 && feed.next_submit() != 5; ++i) {
    usleep(5'000);
    EXPECT_TRUE(feed.poll(0, out));
  }
  ASSERT_EQ(feed.next_submit(), 5);  // queued: not due at virtual 0

  // The malformed line marks when b's bytes have been read.
  send(b, "oops\nend\n@7 1 1 1\n");
  for (int i = 0; i < 400 && feed.parse_errors() == 0; ++i) {
    usleep(5'000);
    EXPECT_TRUE(feed.poll(0, out));
  }
  ASSERT_EQ(feed.parse_errors(), 1u);
  send(a, "@6 1 1 1\n");
  EXPECT_TRUE(feed.poll(0, out));  // @5 still queued
  EXPECT_TRUE(out.empty());

  EXPECT_FALSE(feed.poll(kTimeInfinity, out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].submit, 5);
  EXPECT_FALSE(feed.poll(kTimeInfinity, out));
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(feed.parse_errors(), 1u);
  close(a);
  close(b);
}

TEST(Serve, FormatSubmitLineIsParseInverse) {
  SubmitRecord timed;
  timed.submit = 120;
  timed.nodes = 8;
  timed.runtime = 3600;
  timed.estimate = 7200;
  timed.user = 42;
  EXPECT_EQ(serve::format_submit_line(timed), "@120 8 3600 7200 42");
  SubmitRecord parsed;
  ASSERT_EQ(serve::parse_submit_line(serve::format_submit_line(timed), parsed),
            ParseResult::kRecord);
  EXPECT_EQ(parsed.submit, timed.submit);
  EXPECT_EQ(parsed.user, timed.user);

  SubmitRecord live;
  live.submit = -1;
  live.nodes = 2;
  live.runtime = 60;
  live.estimate = 90;
  EXPECT_EQ(serve::format_submit_line(live), "2 60 90 0");
  ASSERT_EQ(serve::parse_submit_line(serve::format_submit_line(live), parsed),
            ParseResult::kRecord);
  EXPECT_EQ(parsed.submit, -1);
}

TEST(Serve, SubmitClientGivesUpAfterItsRetryBudget) {
  // Nothing listens on this freshly bound-then-closed port; a client with
  // a 2-connect budget must fail fast instead of retrying forever.
  std::uint16_t dead_port = 0;
  {
    serve::TcpFeed probe(0);
    dead_port = probe.port();
  }
  serve::TcpSubmitClient client(dead_port, /*max_attempts=*/2);
  SubmitRecord r;
  r.submit = 0;
  EXPECT_FALSE(client.send(r));
  EXPECT_EQ(client.reconnects(), 0u);
}

TEST(Serve, SubmitClientReconnectsAcrossAListenerRestart) {
  auto feed = std::make_unique<serve::TcpFeed>(0);
  const std::uint16_t port = feed->port();
  serve::TcpSubmitClient client(port);

  SubmitRecord r;
  r.submit = 0;
  r.nodes = 1;
  r.runtime = 5;
  r.estimate = 5;
  ASSERT_TRUE(client.send(r));
  std::vector<SubmitRecord> out;
  ASSERT_TRUE(feed->poll(kTimeInfinity, out));
  ASSERT_EQ(out.size(), 1u);

  // Restart the listener on the same port: the daemon died and came back.
  feed.reset();
  serve::TcpFeed reborn(port);
  // The client's old connection is dead; sends hit the RST within a few
  // tries, reconnect, and land on the reborn listener.
  out.clear();
  for (int i = 0; i < 50 && out.empty(); ++i) {
    r.submit = i + 1;
    ASSERT_TRUE(client.send(r));
    usleep(2'000);
    reborn.poll(kTimeInfinity, out);
  }
  ASSERT_FALSE(out.empty());
  EXPECT_GE(client.reconnects(), 1u);
}

}  // namespace
}  // namespace jsched
