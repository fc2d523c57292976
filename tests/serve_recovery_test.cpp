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

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
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

/// Every admission `journal` loaded at open, pulled through its reader.
std::vector<serve::JournaledJob> replayed(const AdmissionJournal& journal) {
  std::vector<serve::JournaledJob> jobs;
  AdmissionJournal::Replay replay(journal);
  serve::JournaledJob job;
  while (replay.next(job)) jobs.push_back(job);
  return jobs;
}

SubmitRecord rec(Time submit, int nodes, Duration runtime) {
  SubmitRecord r;
  r.submit = submit;
  r.nodes = nodes;
  r.runtime = runtime;
  r.estimate = runtime;
  r.user = 7;
  return r;
}

TEST(AdmissionJournal, RoundTripsAdmissionsDropsAndDigests) {
  TempJournal f("adm-roundtrip");
  {
    AdmissionJournal j(f.path());
    EXPECT_FALSE(j.has_history());
    j.begin_run();
    j.record_admit(rec(10, 2, 100), /*late=*/false, /*delayed=*/false);
    j.record_admit(rec(20, 4, 200), /*late=*/true, /*delayed=*/true);
    j.record_drop(DropKind::kInvalid);
    j.record_drop(DropKind::kShedBacklog);
    j.record_digest({110, 1, 0xfedcba9876543210ull});
    j.record_digest({130, 1, 42});
    EXPECT_EQ(j.appends(), 7u);
    EXPECT_TRUE(j.digests().empty());  // appended, not kept
  }
  AdmissionJournal j(f.path());
  EXPECT_TRUE(j.has_history());
  EXPECT_EQ(j.runs(), 1u);
  EXPECT_EQ(j.admitted_count(), 2u);
  const std::vector<serve::JournaledJob> admitted = replayed(j);
  ASSERT_EQ(admitted.size(), 2u);
  EXPECT_EQ(admitted[0].record.submit, 10);
  EXPECT_EQ(admitted[0].record.user, 7);
  EXPECT_FALSE(admitted[0].late);
  EXPECT_TRUE(admitted[1].late);
  EXPECT_TRUE(admitted[1].delayed);
  ASSERT_EQ(j.digests().size(), 2u);
  EXPECT_EQ(j.digests()[0].t, 110);
  EXPECT_EQ(j.digests()[0].dones, 1u);
  EXPECT_EQ(j.digests()[0].sum, 0xfedcba9876543210ull);  // all 64 bits
  EXPECT_EQ(j.digests()[1].sum, 42u);
  EXPECT_EQ(j.consumed_feed_records(), 4u);  // 2 admits + 2 drops
  EXPECT_EQ(j.completed_at_open(), 1u);      // the last digest's dones
  EXPECT_EQ(j.dropped_invalid(), 1u);
  EXPECT_EQ(j.dropped_shed_backlog(), 1u);
  EXPECT_EQ(j.dropped_shed_capacity(), 0u);
  EXPECT_EQ(j.late_at_open(), 1u);
  EXPECT_EQ(j.delayed_at_open(), 1u);
  EXPECT_EQ(j.last_event_time(), 130);  // a digest after the last admit
  EXPECT_EQ(j.appends(), 0u);  // loaded history is not "appended by us"

  // A digest behind the one before it, or counting more completions than
  // the admits before it, cannot come from a serve() run.
  for (const char* digest : {"digest 100 1 0", "digest 120 0 0",
                             "digest -5 0 0", "digest 120 3 0"}) {
    SCOPED_TRACE(digest);
    TempJournal bad("adm-digest");
    {
      util::AppendLog log(bad.path());
      log.append_checked("s1", "run 0");
      log.append_checked("s1", "admit 10 2 100 100 7 0");
      log.append_checked("s1", "admit 20 4 200 200 7 0");
      log.append_checked("s1", "digest 110 1 0");
      log.append_checked("s1", digest);
    }
    try {
      AdmissionJournal journal(bad.path());
      ADD_FAILURE() << "expected JournalReplayError";
    } catch (const serve::JournalReplayError& e) {
      EXPECT_NE(std::string(e.what()).find("at record 5"), std::string::npos)
          << e.what();
    }
  }
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

TEST(AdmissionJournal, RejectsAdmitsOutsideTheJobModel) {
  // Checksummed, so only the field bounds can catch them: nodes and user
  // must fit int32 and times stop at 10^15 s, as on the feed.
  for (const char* admit :
       {"admit 10 4294967304 100 100 7 0", "admit 10 2147483648 100 100 7 0",
        "admit 10 2 100 100 4294967297 0",
        "admit 10 1 9223372036854775802 9223372036854775802 7 0",
        "admit 1000000000000001 1 100 100 7 0"}) {
    SCOPED_TRACE(admit);
    TempJournal f("adm-bounds");
    {
      util::AppendLog log(f.path());
      log.append_checked("s1", "run 0");
      log.append_checked("s1", admit);
    }
    try {
      AdmissionJournal j(f.path());
      ADD_FAILURE() << "expected JournalReplayError";
    } catch (const serve::JournalReplayError& e) {
      EXPECT_NE(std::string(e.what()).find("admit record with invalid fields"),
                std::string::npos)
          << e.what();
    }
  }
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
  EXPECT_EQ(j.admitted_count(), 1u);
  EXPECT_EQ(replayed(j).size(), 1u);
}

TEST(AdmissionJournal, AppendAfterTornTailReopens) {
  // A restart on a journal that ends in a torn record appends after it;
  // the next open must find every complete record, the new ones included.
  TempJournal f("adm-torn-append");
  {
    AdmissionJournal j(f.path());
    j.begin_run();
    j.record_admit(rec(10, 2, 100), false, false);
  }
  {
    std::ofstream out(f.path(), std::ios::app);
    out << "s1 deadbeefdeadbeef admit 20 1";  // killed mid-append
  }
  {
    AdmissionJournal j(f.path());
    EXPECT_EQ(j.admitted_count(), 1u);
    j.begin_run();
    j.record_admit(rec(30, 4, 200), false, false);
  }
  AdmissionJournal j(f.path());
  EXPECT_EQ(j.runs(), 2u);
  const std::vector<serve::JournaledJob> admitted = replayed(j);
  ASSERT_EQ(admitted.size(), 2u);
  EXPECT_EQ(admitted[1].record.submit, 30);
  EXPECT_EQ(test::read_lines(f.path()).size(), 4u);
}

TEST(AdmissionJournal, RefusesMalformedPayloads) {
  // Checksummed, so only the parser can refuse them: a missing field, a
  // token that is not a whole integer, an empty token, an unknown drop
  // kind, a digest sum that is not hex. (Digests that go back or count
  // more completions than admissions: RoundTripsAdmissionsDropsAndDigests.)
  for (const char* payload :
       {"admit 10 2 100 100 7", "digest 110 1", "run", "drop",
        "admit 12x 2 100 100 7 0", "admit 10 2 100 1e2 7 0",
        "admit 10 2 100 100 7 ", "drop ", "drop 3", "drop -1",
        "digest 110 1 xyz"}) {
    SCOPED_TRACE(payload);
    TempJournal f("adm-malformed");
    {
      util::AppendLog log(f.path());
      log.append_checked("s1", "run 0");
      log.append_checked("s1", "admit 10 2 100 100 7 0");
      log.append_checked("s1", payload);
    }
    try {
      AdmissionJournal j(f.path());
      ADD_FAILURE() << "expected JournalReplayError";
    } catch (const serve::JournalReplayError& e) {
      EXPECT_NE(std::string(e.what()).find("at record 3"), std::string::npos)
          << e.what();
    }
  }
  // An unknown verb under a valid checksum is still skipped.
  TempJournal f("adm-unknown-verb");
  {
    util::AppendLog log(f.path());
    log.append_checked("s1", "run 0");
    log.append_checked("s1", "frobnicate 1 2");
    log.append_checked("s1", "admit 10 2 100 100 7 0");
  }
  AdmissionJournal j(f.path());
  EXPECT_EQ(j.runs(), 1u);
  EXPECT_EQ(replayed(j).size(), 1u);
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

/// The verb of a journal record ("s1 <checksum> <verb> ...").
std::string verb_of(const std::string& record) {
  std::istringstream in(record);
  std::string tag, checksum, verb;
  in >> tag >> checksum >> verb;
  return verb;
}

/// The instants of the journal's `digest` records, in file order.
std::vector<Time> digest_instants(const std::string& path) {
  std::vector<Time> instants;
  for (const std::string& record : test::read_lines(path)) {
    std::istringstream in(record);
    std::string tag, checksum, verb;
    Time t = 0;
    in >> tag >> checksum >> verb;
    if (verb == "digest" && in >> t) instants.push_back(t);
  }
  return instants;
}

/// Writes the first `k` records to `path`: what a kill after append k
/// leaves, since each append is one flushed line.
void write_prefix(const std::string& path,
                  const std::vector<std::string>& records, std::size_t k) {
  std::ofstream out(path);
  for (std::size_t i = 0; i < k; ++i) out << records[i] << "\n";
}

TEST(ServeRecovery, JournalingOffAndOnProduceTheSameSchedule) {
  const ServeReport plain = run_once(recovery_options(nullptr));
  TempJournal f("journal-overhead");
  AdmissionJournal journal(f.path());
  const ServeReport journaled = run_once(recovery_options(&journal));
  expect_reports_identical(plain, journaled);
  EXPECT_FALSE(journaled.recovered);
  // run header + one admit per job + one digest per 64 or more decisions
  // (a start and a completion per job), the last one as the run ends.
  const std::size_t digests = digest_instants(f.path()).size();
  EXPECT_EQ(journaled.journal_appends, 1 + plain.submitted + digests);
  EXPECT_GE(digests, 1u);
  EXPECT_LE(digests, 2 * plain.submitted / 64 + 1);
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
    const std::size_t journaled_at_open = journal.admitted_count();
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
  // Kill-restart under fault injection: the digest hashes (job, epoch), so
  // a requeued job's second start stays distinct from its first.
  const fault::FailureTrace outages = fault::make_failure_trace(
      {{5'000, -32}, {40'000, +32}, {80'000, -16}, {120'000, +16}}, 64);
  fault::FaultOptions faults;
  faults.trace = &outages;

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

/// The every-append sweeps' workload: the recovery workload's first 60
/// jobs with submits rounded down to whole 1000 s, so equal-submit batches
/// are common.
const workload::Workload& batched_workload() {
  static const workload::Workload w = [] {
    std::vector<Job> jobs(recovery_workload().jobs().begin(),
                          recovery_workload().jobs().begin() + 60);
    for (Job& j : jobs) j.submit -= j.submit % 1000;
    return workload::Workload(jobs);
  }();
  return w;
}

/// Half the machine fails at 8000 s and returns at 43000 s.
fault::FaultOptions batched_faults() {
  static const fault::FailureTrace outages =
      fault::make_failure_trace({{8'000, -32}, {43'000, +32}}, 64);
  fault::FaultOptions faults;
  faults.trace = &outages;
  return faults;
}

TEST(ServeRecovery, RecoversAtEveryAppendPoint) {
  // Each append is one flushed line, so the first k records of a finished
  // run's journal are exactly what a kill after append k leaves. Restart
  // from every such prefix. Submits rounded down to whole 1000 s make
  // equal-submit batches common, the backlog or queue bound sheds and the
  // fault trace kills, so the journal interleaves admits, drops and
  // requeued starts, and some k split a batch: the restart must deliver
  // the journaled and the fresh half of that batch in one round, judging
  // the fresh half against bounds that count the journaled half, as the
  // uninterrupted run did.
  struct Case {
    const char* spec;
    std::size_t max_backlog;
    std::size_t queue_capacity;  // shed above it
    bool kills;
  };
  for (const Case& c : {Case{"FCFS+EASY", 8, 4096, true},
                        Case{"SMART-FFIA", 8, 4096, true},
                        Case{"FCFS+EASY", 0, 2, false}}) {
    SCOPED_TRACE(std::string(c.spec) + " max_backlog " +
                 std::to_string(c.max_backlog) + " queue_capacity " +
                 std::to_string(c.queue_capacity));
    const auto serve_with = [&](AdmissionJournal* journal) {
      ServeOptions options = recovery_options(journal);
      options.spec = core::parse_spec(c.spec);
      options.faults = batched_faults();
      options.max_backlog = c.max_backlog;
      options.queue_capacity = c.queue_capacity;
      options.overload = serve::OverloadPolicy::kShed;
      workload::WorkloadSource source(batched_workload());
      serve::JobSourceFeed feed(source);
      return serve::serve(feed, options);
    };
    const ServeReport reference = serve_with(nullptr);
    ASSERT_GT(reference.shed_backlog + reference.shed_capacity, 0u);
    ASSERT_EQ(reference.killed > 0, c.kills);

    TempJournal full("every-append-full");
    {
      AdmissionJournal journal(full.path());
      (void)serve_with(&journal);
    }
    const std::vector<std::string> records = test::read_lines(full.path());
    // Records read "s1 <checksum> <verb> ...": count admits whose submit
    // equals the previous admit's, i.e. batches some prefix splits.
    std::size_t batch_mates = 0;
    std::string last_submit;
    for (const std::string& record : records) {
      std::istringstream in(record);
      std::string tag, checksum, verb, submit;
      in >> tag >> checksum >> verb >> submit;
      if (verb != "admit") continue;
      if (submit == last_submit) ++batch_mates;
      last_submit = submit;
    }
    ASSERT_GT(batch_mates, 0u);

    for (std::size_t k = 0; k <= records.size(); ++k) {
      SCOPED_TRACE("restarted after append " + std::to_string(k) + " of " +
                   std::to_string(records.size()));
      TempJournal prefix("every-append");
      write_prefix(prefix.path(), records, k);
      AdmissionJournal journal(prefix.path());
      const ServeReport resumed = serve_with(&journal);
      expect_reports_identical(reference, resumed);
      EXPECT_EQ(resumed.killed, reference.killed);
      EXPECT_EQ(resumed.requeued, reference.requeued);
      if (HasFailure()) return;  // one diverging prefix says it all
    }
  }
}

TEST(ServeRecovery, RecoversAtEveryAppendPointUnderBackpressure) {
  // Under kBlock with a queue of 1, the uninterrupted run admits an
  // instant's batch one holdover at a time. Each admission made after the
  // round at t is stamped t + 1 and opens an instant of its own, so a
  // restart, which serves each journaled instant in one round, makes the
  // same rounds. SMART and PSRS reorder their queue per round: merging two
  // rounds would change their decisions, and the digest would refuse the
  // restart. Every prefix must recover the same schedule in the same
  // rounds.
  for (const char* spec : {"SMART-FFIA", "SMART-NFIW+EASY", "PSRS+CONS",
                           "PSRS", "FCFS+EASY", "FCFS+CONS"}) {
    SCOPED_TRACE(spec);
    const auto serve_with = [&](AdmissionJournal* journal) {
      ServeOptions options = recovery_options(journal);
      options.spec = core::parse_spec(spec);
      options.faults = batched_faults();
      options.queue_capacity = 1;
      options.overload = serve::OverloadPolicy::kBlock;
      workload::WorkloadSource source(batched_workload());
      serve::JobSourceFeed feed(source);
      return serve::serve(feed, options);
    };
    const ServeReport reference = serve_with(nullptr);
    ASSERT_GT(reference.delayed_admissions, 0u);
    ASSERT_GT(reference.killed, 0u);

    TempJournal full("backpressure-full");
    {
      AdmissionJournal journal(full.path());
      (void)serve_with(&journal);
    }
    const std::vector<std::string> records = test::read_lines(full.path());
    ASSERT_GT(digest_instants(full.path()).size(), 1u);
    for (std::size_t k = 0; k <= records.size(); ++k) {
      SCOPED_TRACE("restarted after append " + std::to_string(k) + " of " +
                   std::to_string(records.size()));
      TempJournal prefix("backpressure");
      write_prefix(prefix.path(), records, k);
      AdmissionJournal journal(prefix.path());
      ServeReport resumed;
      EXPECT_NO_THROW(resumed = serve_with(&journal));
      EXPECT_EQ(resumed.schedule_fnv, reference.schedule_fnv);
      EXPECT_EQ(resumed.decisions, reference.decisions);
      EXPECT_EQ(resumed.completed, reference.completed);
      EXPECT_EQ(resumed.killed, reference.killed);
      if (HasFailure()) return;
    }
  }
}

TEST(ServeRecovery, RestartUnderAnotherSpecMachineOrFaultTraceIsRefused) {
  // The digest is what still refuses a journal written under another
  // setup now that decisions are not journaled one by one. Try a finished
  // journal and the same journal cut right after its first digest.
  TempJournal finished("foreign-finished");
  {
    AdmissionJournal journal(finished.path());
    (void)run_once(recovery_options(&journal));
  }
  const std::vector<std::string> records = test::read_lines(finished.path());
  std::size_t first_digest = 0;
  while (first_digest < records.size() &&
         verb_of(records[first_digest]) != "digest") {
    ++first_digest;
  }
  ASSERT_LT(first_digest, records.size());

  const fault::FailureTrace outages =
      fault::make_failure_trace({{1'000, -48}, {40'000, +48}}, 64);
  struct Variant {
    const char* name;
    std::function<void(ServeOptions&)> apply;
  };
  const Variant variants[] = {
      {"spec SMART-FFIA",
       [](ServeOptions& o) { o.spec = core::parse_spec("SMART-FFIA"); }},
      {"machine 128", [](ServeOptions& o) { o.machine.nodes = 128; }},
      {"fault trace",
       [&](ServeOptions& o) { o.faults.trace = &outages; }},
  };
  for (const std::size_t k : {records.size(), first_digest + 1}) {
    for (const Variant& v : variants) {
      SCOPED_TRACE(std::string(v.name) + ", journal of " + std::to_string(k) +
                   " records");
      TempJournal f("foreign");
      write_prefix(f.path(), records, k);
      const std::vector<Time> instants = digest_instants(f.path());
      AdmissionJournal journal(f.path());
      ServeOptions options = recovery_options(&journal);
      v.apply(options);
      try {
        (void)run_once(options);
        ADD_FAILURE() << "the restart was not refused";
      } catch (const serve::JournalReplayError& e) {
        const std::string what = e.what();
        const std::size_t at = what.find("digest at t=");
        ASSERT_NE(at, std::string::npos) << what;
        const Time t = std::stoll(what.substr(at + 12));
        EXPECT_NE(std::find(instants.begin(), instants.end(), t),
                  instants.end())
            << what;
      }
    }
  }
}

TEST(ServeRecovery, RestartOfAFinishedJournalAppendsOnlyItsRunHeader) {
  TempJournal f("finished");
  ServeReport first;
  {
    AdmissionJournal journal(f.path());
    first = run_once(recovery_options(&journal));
  }
  const std::size_t records = test::read_lines(f.path()).size();
  AdmissionJournal journal(f.path());
  EXPECT_EQ(journal.completed_at_open(), first.completed);
  const ServeReport resumed = run_once(recovery_options(&journal));
  expect_reports_identical(first, resumed);
  EXPECT_EQ(resumed.journal_appends, 1u);
  EXPECT_EQ(resumed.recovered_completed, first.completed);
  // No faults: a start and a completion per job, all re-derived.
  EXPECT_EQ(resumed.replayed_decisions, 2 * first.submitted);
  const std::vector<std::string> after = test::read_lines(f.path());
  ASSERT_EQ(after.size(), records + 1);
  EXPECT_EQ(verb_of(after.back()), "run");
}

TEST(ServeRecovery, FreshSubmissionsAfterARestartFollowTheLastDigest) {
  // A finished daemon restarted on its journal with a new feed: what it
  // admits is stamped after the last digest's instant, so a fresh job
  // joins no decision that digest covers and the check still passes.
  TempJournal f("fresh-after");
  ServeReport first;
  {
    AdmissionJournal journal(f.path());
    first = run_once(recovery_options(&journal));
  }
  const Time last_digest = digest_instants(f.path()).back();
  EXPECT_EQ(last_digest, first.virtual_makespan);
  AdmissionJournal journal(f.path());
  ServeOptions options = recovery_options(&journal);
  options.feed_restarts_from_start = false;  // a new client, not a replay
  test::ScriptFeed feed({rec(0, 4, 100)});
  const ServeReport resumed = serve::serve(feed, options);
  EXPECT_EQ(resumed.completed, first.completed + 1);
  EXPECT_EQ(resumed.late_arrivals, first.late_arrivals + 1);
  EXPECT_EQ(resumed.virtual_makespan, last_digest + 1 + 100);
  EXPECT_EQ(resumed.journal_appends, 3u);  // run, admit, final digest
}

TEST(ServeRecovery, DigestInstantsStrictlyIncreaseAcrossRestarts) {
  const ServeReport reference = run_once(recovery_options(nullptr));
  TempJournal f("digest-order");
  {
    AdmissionJournal journal(f.path());
    (void)run_aborted(&journal, 150);
  }
  {
    AdmissionJournal journal(f.path());
    EXPECT_TRUE(run_aborted(&journal, 400).recovered);
  }
  {
    AdmissionJournal journal(f.path());
    EXPECT_EQ(journal.runs(), 2u);
    expect_reports_identical(reference,
                             run_once(recovery_options(&journal)));
  }
  // Each of the three runs appended digests, and no restart repeated or
  // went behind one it loaded.
  std::vector<std::size_t> digests_per_run;
  for (const std::string& record : test::read_lines(f.path())) {
    const std::string verb = verb_of(record);
    if (verb == "run") digests_per_run.push_back(0);
    if (verb == "digest") ++digests_per_run.back();
  }
  ASSERT_EQ(digests_per_run.size(), 3u);
  for (const std::size_t n : digests_per_run) EXPECT_GT(n, 0u);
  const std::vector<Time> instants = digest_instants(f.path());
  EXPECT_EQ(std::adjacent_find(instants.begin(), instants.end(),
                               std::greater_equal<Time>()),
            instants.end());
}

TEST(ServeRecovery, LegacyDecisionRecordsLoadAndRecoverBitIdentical) {
  // Journals written before digests existed hold a `start` and a `done`
  // record per decision instead. They must still load, their decisions
  // re-derived unchecked. Build one from a killed run's admissions plus
  // the offline schedule's decisions up to its last admission.
  const ServeReport reference = run_once(recovery_options(nullptr));
  TempJournal killed("legacy-source");
  {
    AdmissionJournal journal(killed.path());
    (void)run_aborted(&journal, 200);
  }
  const sim::Schedule schedule =
      test::run(core::parse_spec("FCFS+EASY"), recovery_workload(), 64);
  TempJournal f("legacy");
  std::size_t admits = 0;
  Time last_admit = 0;
  {
    util::AppendLog log(f.path());
    for (const std::string& record : test::read_lines(killed.path())) {
      const std::string verb = verb_of(record);
      if (verb == "digest") continue;
      std::string payload;
      ASSERT_TRUE(util::AppendLog::check_record(record, "s1", &payload));
      log.append_checked("s1", payload);
      if (verb != "admit") continue;
      ++admits;
      std::istringstream in(payload);
      std::string admit;
      in >> admit >> last_admit;
    }
    for (JobId id = 0; id < admits; ++id) {
      const sim::JobRecord& r = schedule[id];
      if (r.start <= last_admit) {
        log.append_checked("s1", "start " + std::to_string(id) + " 0 " +
                                     std::to_string(r.start));
      }
      if (r.end <= last_admit) {
        log.append_checked("s1", "done " + std::to_string(id) + " 0 " +
                                     std::to_string(r.end));
      }
    }
  }
  ASSERT_GT(admits, 0u);
  ASSERT_LT(admits, reference.submitted);
  AdmissionJournal journal(f.path());
  EXPECT_EQ(journal.admitted_count(), admits);
  EXPECT_TRUE(journal.digests().empty());
  EXPECT_EQ(journal.completed_at_open(), 0u);
  EXPECT_EQ(journal.last_event_time(), last_admit);
  const ServeReport resumed = run_once(recovery_options(&journal));
  EXPECT_TRUE(resumed.recovered);
  expect_reports_identical(reference, resumed);
}

TEST(ServeRecovery, JournalCutOrRewrittenBeforeReplayIsRefused) {
  // The restart reads its admissions back from the file after opening it.
  // A file cut, or rewritten with other (checksummed) admissions, in
  // between must make serve() refuse instead of replaying what is there.
  TempJournal source("changed-source");
  {
    AdmissionJournal journal(source.path());
    (void)run_aborted(&journal, 200);
  }
  const std::vector<std::string> records = test::read_lines(source.path());
  std::size_t last_admit = records.size();
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (verb_of(records[i]) == "admit") last_admit = i;
  }
  ASSERT_LT(last_admit, records.size());
  // The last admission with its user's last digit changed: same length,
  // same count, a valid checksum.
  std::string payload;
  ASSERT_TRUE(util::AppendLog::check_record(records[last_admit], "s1",
                                            &payload));
  const std::size_t user_end = payload.rfind(' ');
  payload[user_end - 1] = payload[user_end - 1] == '1' ? '2' : '1';
  for (const bool cut : {true, false}) {
    SCOPED_TRACE(cut ? "cut" : "rewritten");
    TempJournal f("changed");
    write_prefix(f.path(), records, records.size());
    AdmissionJournal journal(f.path());
    ASSERT_GT(journal.admitted_count(), 1u);
    if (cut) {
      write_prefix(f.path(), records, records.size() / 2);
    } else {
      std::vector<std::string> rewritten = records;
      {
        TempJournal one("changed-record");
        util::AppendLog(one.path()).append_checked("s1", payload);
        rewritten[last_admit] = test::read_lines(one.path()).front();
      }
      ASSERT_EQ(rewritten[last_admit].size(), records[last_admit].size());
      write_prefix(f.path(), rewritten, rewritten.size());
    }
    try {
      (void)run_once(recovery_options(&journal));
      ADD_FAILURE() << "the changed journal was replayed";
    } catch (const serve::JournalReplayError& e) {
      EXPECT_NE(std::string(e.what()).find("changed since it was opened"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ServeRecovery, JournalBytesArePinned) {
  // A fixed run and a restart of it that between them admit a late and a
  // delayed job, drop a record of each DropKind and write digests. The
  // file's FNV-1a pins every byte the journal's record formatting writes.
  std::vector<SubmitRecord> records;
  for (int i = 0; i < 60; ++i) {
    SubmitRecord r = rec(400 * (i / 3), 1 + (i * 5) % 8, 50 + (i * 37) % 400);
    r.estimate = r.runtime + 10 * (i % 7);
    r.user = i % 5;
    records.push_back(r);
  }
  records[7].nodes = 9;  // wider than the machine
  TempJournal f("pinned-bytes");
  const auto serve_with = [&](serve::OverloadPolicy overload) {
    AdmissionJournal journal(f.path());
    ServeOptions options = recovery_options(&journal);
    options.machine.nodes = 8;
    options.queue_capacity = 1;
    options.max_backlog = 5;
    options.overload = overload;
    options.feed_restarts_from_start = false;  // the restart gets a new feed
    test::ScriptFeed feed(records);
    return serve::serve(feed, options);
  };
  const ServeReport run = serve_with(serve::OverloadPolicy::kBlock);
  EXPECT_GT(run.delayed_admissions, 0u);
  EXPECT_GT(run.rejected_invalid, 0u);
  EXPECT_GT(run.shed_backlog, 0u);
  {
    // The restart's batch arrives after the last admission and before the
    // last digest's instant, so its one admitted job is stamped late; the
    // queue of 1 sheds the other two.
    const AdmissionJournal journal(f.path());
    const Time t = (journal.last_admit_time() + journal.digests().back().t) / 2;
    records = {rec(t, 4, 100), rec(t, 2, 60), rec(t, 1, 30)};
  }
  const ServeReport restart = serve_with(serve::OverloadPolicy::kShed);
  EXPECT_TRUE(restart.recovered);
  EXPECT_EQ(restart.late_arrivals, run.late_arrivals + 1);
  EXPECT_EQ(restart.shed_capacity, 2u);
  EXPECT_GT(digest_instants(f.path()).size(), 2u);

  std::ifstream in(f.path(), std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes.size(), 2820u);
  EXPECT_EQ(util::fnv1a(bytes), 0xb0b7244052768bd5ull);
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
  for (const char* budget : {"120", "180"}) {
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
