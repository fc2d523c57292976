// ServeRecovery: crash-safe serving through the admission journal.
//
// The contract under test is bit-identity across death: a daemon killed at
// an arbitrary point mid-stream and restarted against its journal must end
// with exactly the report an uninterrupted run produces — fingerprint,
// decision count, latency-histogram totals, shed/late counters, all of it.
// Most tests crash deterministically in-process (an abort via poll_signal
// after N polls, which leaves the journal exactly as a kill would); the
// wall-clock smoke test dies for real, SIGKILL'd by the chaos knob in a
// re-exec'd child, and the parent restarts over the survivor journal.
#include "serve/journal.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/factory.h"
#include "fault/fault.h"
#include "metrics/streaming.h"
#include "serve/daemon.h"
#include "serve/feed.h"
#include "sim/streaming.h"
#include "test_support.h"
#include "util/clock.h"
#include "util/journal.h"
#include "util/rng.h"
#include "util/subprocess.h"
#include "workload/ctc_model.h"
#include "workload/job_source.h"
#include "workload/transforms.h"

namespace jsched {
namespace {

using serve::AdmissionJournal;
using serve::DropKind;
using serve::ServeOptions;
using serve::ServeReport;
using serve::SubmitRecord;

class TempJournal {
 public:
  explicit TempJournal(const std::string& stem)
      : path_(std::string(::testing::TempDir()) + stem + "-" +
              std::to_string(counter_++) + ".journal") {
    std::remove(path_.c_str());
  }
  ~TempJournal() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  static int counter_;
  std::string path_;
};

int TempJournal::counter_ = 0;

// ------------------------------------------------- AdmissionJournal unit

SubmitRecord rec(Time submit, int nodes, Duration runtime) {
  SubmitRecord r;
  r.submit = submit;
  r.nodes = nodes;
  r.runtime = runtime;
  r.estimate = runtime;
  r.user = 7;
  return r;
}

TEST(AdmissionJournal, RoundTripsAdmissionsDropsAndDecisions) {
  TempJournal f("adm-roundtrip");
  {
    AdmissionJournal j(f.path());
    EXPECT_FALSE(j.has_history());
    j.begin_run();
    j.record_admit(rec(10, 2, 100), /*late=*/false, /*delayed=*/false);
    j.record_admit(rec(20, 4, 200), /*late=*/true, /*delayed=*/true);
    j.record_drop(DropKind::kInvalid);
    j.record_drop(DropKind::kShedBacklog);
    EXPECT_FALSE(j.record_start(0, 0, 10));
    EXPECT_FALSE(j.record_done(0, 0, 110));
    EXPECT_FALSE(j.record_start(1, 0, 110));
    EXPECT_EQ(j.appends(), 8u);
  }
  AdmissionJournal j(f.path());
  EXPECT_TRUE(j.has_history());
  EXPECT_EQ(j.runs(), 1u);
  ASSERT_EQ(j.admitted().size(), 2u);
  EXPECT_EQ(j.admitted()[0].record.submit, 10);
  EXPECT_EQ(j.admitted()[0].record.user, 7);
  EXPECT_FALSE(j.admitted()[0].late);
  EXPECT_TRUE(j.admitted()[1].late);
  EXPECT_TRUE(j.admitted()[1].delayed);
  EXPECT_EQ(j.consumed_feed_records(), 4u);  // 2 admits + 2 drops
  EXPECT_EQ(j.completed_at_open(), 1u);
  EXPECT_EQ(j.dropped_invalid(), 1u);
  EXPECT_EQ(j.dropped_shed_backlog(), 1u);
  EXPECT_EQ(j.dropped_shed_capacity(), 0u);
  EXPECT_EQ(j.late_at_open(), 1u);
  EXPECT_EQ(j.delayed_at_open(), 1u);
  EXPECT_EQ(j.last_event_time(), 110);
  EXPECT_EQ(j.appends(), 0u);  // loaded history is not "appended by us"
}

TEST(AdmissionJournal, SuppressesReplayedDecisionsByEpoch) {
  TempJournal f("adm-dedup");
  {
    AdmissionJournal j(f.path());
    j.begin_run();
    j.record_admit(rec(0, 1, 50), false, false);
    j.record_start(0, 0, 0);
    j.record_start(0, 1, 80);  // second attempt after a kill: distinct
  }
  AdmissionJournal j(f.path());
  // Identical re-derived decisions are suppressed, not re-appended.
  EXPECT_TRUE(j.record_start(0, 0, 0));
  EXPECT_TRUE(j.record_start(0, 1, 80));
  EXPECT_EQ(j.appends(), 0u);
  // A fresh epoch is a fresh record.
  EXPECT_FALSE(j.record_start(0, 2, 120));
  EXPECT_EQ(j.appends(), 1u);
  // The same (job, epoch) at a different time is a forked history.
  EXPECT_THROW(j.record_start(0, 0, 5), serve::JournalReplayError);
  // Decisions about jobs never admitted are structurally impossible.
  EXPECT_THROW(j.record_start(9, 0, 5), serve::JournalReplayError);
}

TEST(AdmissionJournal, DetectsCorruptRecords) {
  TempJournal f("adm-corrupt");
  {
    AdmissionJournal j(f.path());
    j.begin_run();
    j.record_admit(rec(10, 2, 100), false, false);
  }
  // Flip one digit inside the admit payload; the checksum must catch it.
  std::vector<std::string> lines = test::read_lines(f.path());
  ASSERT_EQ(lines.size(), 2u);
  const std::size_t pos = lines[1].rfind("10 2 100");
  ASSERT_NE(pos, std::string::npos);
  lines[1][pos] = '9';
  std::remove(f.path().c_str());
  {
    std::ofstream out(f.path());
    for (const std::string& l : lines) out << l << "\n";
  }
  EXPECT_THROW(AdmissionJournal j(f.path()), util::CorruptRecordError);
}

TEST(AdmissionJournal, TornTailIsDroppedNotFatal) {
  TempJournal f("adm-torn");
  {
    AdmissionJournal j(f.path());
    j.begin_run();
    j.record_admit(rec(10, 2, 100), false, false);
  }
  {
    std::ofstream out(f.path(), std::ios::app);
    out << "s1 deadbeefdeadbeef admit 20 1";  // killed mid-append
  }
  AdmissionJournal j(f.path());
  EXPECT_EQ(j.admitted().size(), 1u);
}

// ------------------------------------------------- crash/restart identity

/// The recovery workload: small enough to restart dozens of times per
/// test, busy enough that any replay divergence moves the fingerprint.
const workload::Workload& recovery_workload() {
  static const workload::Workload w = [] {
    workload::CtcModelParams params;
    params.job_count = 400;
    return workload::trim_to_machine(workload::generate_ctc(params, 20260808),
                                     64);
  }();
  return w;
}

ServeOptions recovery_options(AdmissionJournal* journal) {
  ServeOptions options;
  options.machine.nodes = 64;
  options.spec = core::parse_spec("FCFS+EASY");
  options.speed = 0;
  options.journal = journal;
  options.feed_restarts_from_start = true;  // a trace replay re-delivers
  return options;
}

ServeReport run_once(ServeOptions options) {
  workload::WorkloadSource source(recovery_workload());
  serve::JobSourceFeed feed(source);
  return serve::serve(feed, options);
}

/// Serve with an abort request after `polls` signal polls — the in-process
/// stand-in for a kill: serve() returns immediately, no drain, and only
/// the journal knows how far the run got.
ServeReport run_aborted(AdmissionJournal* journal, int polls,
                        const fault::FaultOptions& faults = {}) {
  ServeOptions options = recovery_options(journal);
  options.faults = faults;
  int calls = 0;
  options.poll_signal = [&calls, polls]() mutable {
    return ++calls > polls ? 2 : 0;
  };
  return run_once(options);
}

void expect_reports_identical(const ServeReport& a, const ServeReport& b) {
  EXPECT_EQ(a.schedule_fnv, b.schedule_fnv);
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.decision_latency_ns.count(), b.decision_latency_ns.count());
  EXPECT_EQ(a.shed_capacity, b.shed_capacity);
  EXPECT_EQ(a.shed_backlog, b.shed_backlog);
  EXPECT_EQ(a.rejected_invalid, b.rejected_invalid);
  EXPECT_EQ(a.late_arrivals, b.late_arrivals);
  EXPECT_EQ(a.virtual_makespan, b.virtual_makespan);
  ASSERT_EQ(a.has_metrics, b.has_metrics);
  if (a.has_metrics) {
    EXPECT_EQ(a.metrics.art, b.metrics.art);  // bit-identical
    EXPECT_EQ(a.metrics.utilization, b.metrics.utilization);
  }
}

TEST(ServeRecovery, JournalingOffAndOnProduceTheSameSchedule) {
  const ServeReport plain = run_once(recovery_options(nullptr));
  TempJournal f("journal-overhead");
  AdmissionJournal journal(f.path());
  const ServeReport journaled = run_once(recovery_options(&journal));
  expect_reports_identical(plain, journaled);
  EXPECT_FALSE(journaled.recovered);
  // run header + one admit + one start + one done per job.
  EXPECT_EQ(journaled.journal_appends, 1 + 3 * plain.submitted);
}

TEST(ServeRecovery, RestartAtRandomizedKillPointsIsBitIdentical) {
  const ServeReport reference = run_once(recovery_options(nullptr));

  // A fixed spread of early/mid/late kills plus seed-derived ones: the
  // replay protocol must not care where the run died.
  std::vector<int> kill_points = {1, 3, 25, 200};
  util::Rng rng(0xC0FFEEu);
  for (int i = 0; i < 3; ++i) {
    kill_points.push_back(
        1 + static_cast<int>(rng.next_u64() % (2 * reference.decisions)));
  }
  for (const int polls : kill_points) {
    SCOPED_TRACE("killed after " + std::to_string(polls) + " polls");
    TempJournal f("kill-point");
    {
      AdmissionJournal journal(f.path());
      // A kill point past the end of the run simply completes — the
      // journal then holds a full history and the restart is pure replay.
      (void)run_aborted(&journal, polls);
    }
    AdmissionJournal journal(f.path());
    const std::size_t journaled_at_open = journal.admitted().size();
    const ServeReport resumed = run_once(recovery_options(&journal));
    EXPECT_TRUE(resumed.recovered);
    expect_reports_identical(reference, resumed);
    EXPECT_EQ(resumed.recovered_jobs, journaled_at_open);
  }
}

TEST(ServeRecovery, RestartsComposeAcrossRepeatedCrashes) {
  const ServeReport reference = run_once(recovery_options(nullptr));
  TempJournal f("double-kill");
  {
    AdmissionJournal journal(f.path());
    (void)run_aborted(&journal, 10);
  }
  {
    // The second run recovers the first and dies again, later.
    AdmissionJournal journal(f.path());
    const ServeReport dead = run_aborted(&journal, 60);
    EXPECT_TRUE(dead.recovered);
  }
  AdmissionJournal journal(f.path());
  EXPECT_EQ(journal.runs(), 2u);
  const ServeReport resumed = run_once(recovery_options(&journal));
  EXPECT_TRUE(resumed.recovered);
  expect_reports_identical(reference, resumed);
}

TEST(ServeRecovery, FaultyRunRecoversWithRequeuesIntact) {
  // Kill-restart under fault injection: the journal's (job, epoch) keying
  // must keep a requeued job's second start distinct from its first.
  fault::TraceInjector injector(
      {{5'000, -32}, {40'000, +32}, {80'000, -16}, {120'000, +16}}, 64);
  fault::FaultOptions faults;
  faults.trace = &injector.trace();

  ServeOptions plain = recovery_options(nullptr);
  plain.faults = faults;
  const ServeReport reference = run_once(plain);
  EXPECT_GT(reference.killed, 0u);
  EXPECT_EQ(reference.killed, reference.requeued);

  TempJournal f("faulty-kill");
  {
    AdmissionJournal journal(f.path());
    (void)run_aborted(&journal, 40, faults);
  }
  AdmissionJournal journal(f.path());
  ServeOptions resumed_options = recovery_options(&journal);
  resumed_options.faults = faults;
  const ServeReport resumed = run_once(resumed_options);
  expect_reports_identical(reference, resumed);
  EXPECT_EQ(resumed.killed, reference.killed);
  EXPECT_EQ(resumed.requeued, reference.requeued);
  EXPECT_EQ(resumed.min_capacity, reference.min_capacity);
}

TEST(ServeRecovery, PacedRecoveryUnderManualClockIsDeterministic) {
  // The paced path resumes its virtual clock at the last journaled instant
  // instead of re-pacing the past; under ManualClock the whole exercise is
  // instantaneous and exactly reproducible.
  const auto paced_run = [](AdmissionJournal* journal,
                            int abort_after) -> ServeReport {
    util::ManualClock clock;
    ServeOptions options = recovery_options(journal);
    options.speed = 1e9;  // paced, but every sleep jumps virtual time
    options.clock = &clock;
    if (abort_after > 0) {
      options.poll_signal = [calls = 0, polls = abort_after]() mutable {
        return ++calls > polls ? 2 : 0;
      };
    }
    return run_once(options);
  };
  const ServeReport reference = paced_run(nullptr, 0);
  TempJournal f("paced-kill");
  {
    AdmissionJournal journal(f.path());
    (void)paced_run(&journal, 30);
  }
  AdmissionJournal journal(f.path());
  const ServeReport resumed = paced_run(&journal, 0);
  EXPECT_TRUE(resumed.recovered);
  EXPECT_EQ(resumed.schedule_fnv, reference.schedule_fnv);
  EXPECT_EQ(resumed.completed, reference.completed);
  EXPECT_EQ(resumed.decisions, reference.decisions);
}

TEST(ServeRecovery, ChaosKnobRequiresAJournal) {
  ServeOptions options = recovery_options(nullptr);
  options.chaos_kill_after_appends = 5;
  workload::WorkloadSource source(recovery_workload());
  serve::JobSourceFeed feed(source);
  EXPECT_THROW(serve::serve(feed, options), std::invalid_argument);
}

// --------------------------------------------- wall-clock SIGKILL smoke

/// Child half of the smoke test: re-exec'd by the parent with the journal
/// path and chaos budget in the environment, runs the recovery workload
/// and is SIGKILL'd mid-stream by the chaos knob. Skipped (not run) in a
/// normal test invocation.
TEST(ServeRecovery, ChildCrashRun) {
  const char* path = std::getenv("JSCHED_RECOVERY_JOURNAL");
  const char* chaos = std::getenv("JSCHED_RECOVERY_CHAOS");
  if (path == nullptr || chaos == nullptr) {
    GTEST_SKIP() << "parent-driven child test";
  }
  AdmissionJournal journal(path);
  ServeOptions options = recovery_options(&journal);
  options.chaos_kill_after_appends =
      std::strtoull(chaos, nullptr, 10);
  (void)run_once(options);
  std::fprintf(stderr, "child survived its chaos budget\n");
  std::abort();  // must be unreachable: the chaos knob kills first
}

TEST(ServeRecovery, SigkilledProcessRecoversBitIdentical) {
  const ServeReport reference = run_once(recovery_options(nullptr));
  TempJournal f("sigkill-smoke");
  // Two real SIGKILLs at different depths, then an in-process restart.
  for (const char* budget : {"120", "700"}) {
    auto child = util::Subprocess::spawn(
        {util::self_exe_path(),
         "--gtest_filter=ServeRecovery.ChildCrashRun", "--gtest_brief=1"},
        {{"JSCHED_RECOVERY_JOURNAL", f.path()},
         {"JSCHED_RECOVERY_CHAOS", budget}});
    const util::ExitStatus status = child.wait();
    EXPECT_TRUE(status.signaled) << status.describe();
    EXPECT_EQ(status.code, SIGKILL) << status.describe();
  }
  AdmissionJournal journal(f.path());
  EXPECT_TRUE(journal.has_history());
  EXPECT_EQ(journal.runs(), 2u);
  const ServeReport resumed = run_once(recovery_options(&journal));
  EXPECT_TRUE(resumed.recovered);
  expect_reports_identical(reference, resumed);
}

}  // namespace
}  // namespace jsched
