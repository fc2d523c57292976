// Checkpoint/resume: util::AppendLog crash tolerance and the
// eval::SweepJournal resume semantics (bit-identical results, fingerprint
// verification, partial-resume cell accounting).
#include "eval/journal.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "eval/experiment.h"
#include "eval/reporting.h"
#include "test_support.h"
#include "util/journal.h"

namespace jsched {
namespace {

/// Unique temp path per test; removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& stem)
      : path_(std::string(::testing::TempDir()) + stem + "-" +
              std::to_string(counter_++) + ".journal") {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  static int counter_;
  std::string path_;
};

int TempFile::counter_ = 0;

TEST(Journal, AppendLogRoundTripsLines) {
  TempFile f("appendlog");
  {
    util::AppendLog log(f.path());
    log.append("first");
    log.append("second record with spaces");
  }
  const auto lines = test::read_lines(f.path());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "first");
  EXPECT_EQ(lines[1], "second record with spaces");
}

TEST(Journal, AppendLogMissingFileReadsEmpty) {
  EXPECT_TRUE(test::read_lines("/nonexistent/nope.journal").empty());
}

TEST(Journal, AppendLogRejectsEmbeddedNewline) {
  TempFile f("appendlog-nl");
  util::AppendLog log(f.path());
  EXPECT_THROW(log.append("two\nlines"), std::invalid_argument);
}

TEST(Journal, FsyncDurabilityRoundTrips) {
  // kFsync pushes every record through fsync(2); the observable contract —
  // one durable line per append — is unchanged.
  TempFile f("appendlog-fsync");
  {
    util::AppendLog log(f.path(), util::AppendLog::Durability::kFsync);
    log.append("synced-1");
    log.append("synced-2");
  }
  const auto lines = test::read_lines(f.path());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "synced-1");
  EXPECT_EQ(lines[1], "synced-2");
}

TEST(Journal, FsyncDurabilityComesFromEnv) {
  ASSERT_EQ(::unsetenv("JSCHED_JOURNAL_FSYNC"), 0);
  EXPECT_EQ(util::AppendLog::durability_from_env(),
            util::AppendLog::Durability::kFlush);
  ASSERT_EQ(::setenv("JSCHED_JOURNAL_FSYNC", "1", 1), 0);
  EXPECT_EQ(util::AppendLog::durability_from_env(),
            util::AppendLog::Durability::kFsync);
  ASSERT_EQ(::setenv("JSCHED_JOURNAL_FSYNC", "0", 1), 0);
  EXPECT_EQ(util::AppendLog::durability_from_env(),
            util::AppendLog::Durability::kFlush);
  ASSERT_EQ(::unsetenv("JSCHED_JOURNAL_FSYNC"), 0);
}

TEST(Journal, TornTailStillDropsWithFsyncOff) {
  // The crash-tolerance story does not depend on fsync: in the default
  // flush-only mode a torn in-flight record is still detected and dropped
  // on read (fsync narrows the loss window, it does not define it).
  TempFile f("appendlog-flush-torn");
  {
    util::AppendLog log(f.path(), util::AppendLog::Durability::kFlush);
    log.append("durable-enough");
  }
  {
    std::ofstream out(f.path(), std::ios::app);
    out << "v1 half-written-cel";
  }
  const auto lines = test::read_lines(f.path());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "durable-enough");
}

TEST(Journal, AppendLogDropsTornTrailingLine) {
  // A process killed mid-append leaves a fragment without a newline; the
  // reader must drop exactly that fragment and keep every complete record.
  TempFile f("appendlog-torn");
  {
    util::AppendLog log(f.path());
    log.append("complete-1");
    log.append("complete-2");
  }
  {
    std::ofstream out(f.path(), std::ios::app);
    out << "torn-fragment-without-newline";
  }
  const auto lines = test::read_lines(f.path());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[1], "complete-2");
}

TEST(Journal, ChecksummedRecordsRoundTrip) {
  TempFile f("appendlog-checked");
  {
    util::AppendLog log(f.path());
    log.append_checked("v2", "some payload with spaces");
    log.append_checked("v2", "");  // empty payloads are legal
  }
  const auto lines = test::read_lines(f.path());
  ASSERT_EQ(lines.size(), 2u);
  std::string payload;
  ASSERT_TRUE(util::AppendLog::check_record(lines[0], "v2", &payload));
  EXPECT_EQ(payload, "some payload with spaces");
  ASSERT_TRUE(util::AppendLog::check_record(lines[1], "v2", &payload));
  EXPECT_EQ(payload, "");
  // A different tag is "not this record kind", never an error.
  EXPECT_FALSE(util::AppendLog::check_record(lines[0], "s1", &payload));
  EXPECT_FALSE(util::AppendLog::check_record("v1 legacy line", "v2",
                                             &payload));
}

TEST(Journal, CheckRecordThrowsOnTamperedPayload) {
  TempFile f("appendlog-tamper");
  {
    util::AppendLog log(f.path());
    log.append_checked("v2", "pristine payload");
  }
  std::string line = test::read_lines(f.path())[0];
  std::string payload;
  line[line.size() - 1] ^= 1;  // flip one payload bit
  EXPECT_THROW(util::AppendLog::check_record(line, "v2", &payload),
               util::CorruptRecordError);
  // A mangled checksum field is corruption too, not a skip.
  EXPECT_THROW(
      util::AppendLog::check_record("v2 nothexnothexnot payload", "v2",
                                    &payload),
      util::CorruptRecordError);
}

TEST(Journal, Fnv1aMatchesKnownVector) {
  // The empty string hashes to the FNV offset basis; "a" to the canonical
  // FNV-1a test vector. Guards the constants against silent drift, since
  // every journal checksum depends on them.
  EXPECT_EQ(util::fnv1a(""), 14695981039346656037ull);
  EXPECT_EQ(util::fnv1a("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(util::hex64(0xaf63dc4c8601ec8cull), "af63dc4c8601ec8c");
  std::uint64_t v = 0;
  ASSERT_TRUE(util::parse_hex64("af63dc4c8601ec8c", &v));
  EXPECT_EQ(v, 0xaf63dc4c8601ec8cull);
  EXPECT_FALSE(util::parse_hex64("af63", &v));          // short
  EXPECT_FALSE(util::parse_hex64("zf63dc4c8601ec8c", &v));  // non-hex
}

TEST(Journal, AppendLogResumesAfterReopen) {
  TempFile f("appendlog-reopen");
  {
    util::AppendLog log(f.path());
    log.append("before");
  }
  {
    util::AppendLog log(f.path());
    log.append("after");
  }
  const auto lines = test::read_lines(f.path());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "before");
  EXPECT_EQ(lines[1], "after");
}

eval::RunResult sample_result() {
  eval::RunResult r;
  r.spec.order = core::OrderKind::kSmartFfia;
  r.spec.dispatch = core::DispatchKind::kEasy;
  r.spec.weight = core::WeightKind::kEstimatedArea;
  r.scheduler_name = "SMART-FFIA+EASY";
  r.jobs = 1234;
  r.art = 1234.5678901234567;       // exercises full double precision
  r.awrt = 9.87e12;
  r.wait = 0.1 + 0.2;               // the classic non-representable sum
  r.makespan = 86'400.0;
  r.utilization = 0.87654321;
  r.scheduler_cpu_seconds = 0.001234;
  r.max_queue_length = 77;
  r.schedule_fnv = 0xdeadbeefcafef00dull;
  r.goodput_node_seconds = 1e9;
  r.wasted_node_seconds = 12345.0;
  r.goodput_fraction = 0.999999999;
  r.availability = 0.98;
  r.availability_weighted_utilization = 0.86;
  r.kills = 3;
  r.jobs_hit = 2;
  return r;
}

void expect_bit_identical(const eval::RunResult& a, const eval::RunResult& b) {
  EXPECT_EQ(a.spec.order, b.spec.order);
  EXPECT_EQ(a.spec.dispatch, b.spec.dispatch);
  EXPECT_EQ(a.spec.weight, b.spec.weight);
  EXPECT_EQ(a.scheduler_name, b.scheduler_name);
  EXPECT_EQ(a.jobs, b.jobs);
  // Bit-level comparisons: a journal resume must be indistinguishable from
  // an uninterrupted run, so decimal round-tripping is not good enough.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.art), std::bit_cast<std::uint64_t>(b.art));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.awrt), std::bit_cast<std::uint64_t>(b.awrt));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.wait), std::bit_cast<std::uint64_t>(b.wait));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.makespan),
            std::bit_cast<std::uint64_t>(b.makespan));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.utilization),
            std::bit_cast<std::uint64_t>(b.utilization));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.scheduler_cpu_seconds),
            std::bit_cast<std::uint64_t>(b.scheduler_cpu_seconds));
  EXPECT_EQ(a.max_queue_length, b.max_queue_length);
  EXPECT_EQ(a.schedule_fnv, b.schedule_fnv);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.goodput_fraction),
            std::bit_cast<std::uint64_t>(b.goodput_fraction));
  EXPECT_EQ(a.kills, b.kills);
  EXPECT_EQ(a.jobs_hit, b.jobs_hit);
}

TEST(Journal, SweepJournalRoundTripsRunResultBitwise) {
  TempFile f("sweep-roundtrip");
  const eval::RunResult r = sample_result();
  const std::uint64_t key = eval::cell_key(42, 256, r.spec, 7);
  {
    eval::SweepJournal journal(f.path());
    journal.record(key, r);
  }
  eval::SweepJournal resumed(f.path());
  EXPECT_EQ(resumed.loaded(), 1u);
  eval::RunResult out;
  ASSERT_TRUE(resumed.lookup(key, r.spec, &out));
  EXPECT_EQ(resumed.hits(), 1u);
  expect_bit_identical(r, out);
}

TEST(Journal, SweepJournalMissDoesNotTouchOutput) {
  TempFile f("sweep-miss");
  eval::SweepJournal journal(f.path());
  eval::RunResult out;
  EXPECT_FALSE(journal.lookup(1, core::AlgorithmSpec{}, &out));
  EXPECT_EQ(journal.hits(), 0u);
}

TEST(Journal, SweepJournalDetectsSpecMismatch) {
  // The same key asking for a different configuration is a collision or a
  // corrupt journal — resuming the wrong work must be impossible.
  TempFile f("sweep-mismatch");
  const eval::RunResult r = sample_result();
  const std::uint64_t key = 99;
  eval::SweepJournal journal(f.path());
  journal.record(key, r);
  core::AlgorithmSpec other = r.spec;
  other.dispatch = core::DispatchKind::kList;
  eval::RunResult out;
  EXPECT_THROW(journal.lookup(key, other, &out), std::runtime_error);
}

TEST(Journal, CellKeySeparatesAxes) {
  core::AlgorithmSpec spec;
  const std::uint64_t base = eval::cell_key(1, 256, spec, 0);
  EXPECT_NE(base, eval::cell_key(2, 256, spec, 0));  // workload
  EXPECT_NE(base, eval::cell_key(1, 257, spec, 0));  // machine
  EXPECT_NE(base, eval::cell_key(1, 256, spec, 1));  // salt
  core::AlgorithmSpec other = spec;
  other.dispatch = core::DispatchKind::kEasy;
  EXPECT_NE(base, eval::cell_key(1, 256, other, 0));  // config
  EXPECT_EQ(base, eval::cell_key(1, 256, spec, 0));   // deterministic
}

TEST(Journal, CellKeyAndSweepFingerprintArePinned) {
  // Journals on disk are keyed by these hashes; a journal written by an
  // older build must still resume, so their values for fixed inputs are
  // pinned.
  core::AlgorithmSpec spec;
  spec.order = core::OrderKind::kSmartFfia;
  spec.dispatch = core::DispatchKind::kEasy;
  spec.weight = core::WeightKind::kEstimatedArea;
  const std::uint64_t wfp = 0x0123456789abcdefull;
  EXPECT_EQ(eval::cell_key(wfp, 256, spec, 7), 14603003238918717278ull);
  EXPECT_EQ(eval::cell_key(wfp, 256, spec, 0), 3441426204080770233ull);
  EXPECT_EQ(eval::sweep_fingerprint(wfp, 256), 7358568528253904410ull);
}

/// Grid fingerprints with no journal (the uninterrupted reference).
std::vector<std::uint64_t> grid_fingerprints(const eval::GridResult& grid) {
  std::vector<std::uint64_t> out;
  for (const auto& c : grid.cells) out.push_back(c.result.schedule_fnv);
  return out;
}

TEST(Journal, ResumedGridIsBitIdenticalSerial) {
  const workload::Workload w = test::small_mixed_workload();
  sim::Machine m;
  m.nodes = 16;

  eval::ExperimentOptions plain;
  plain.measure_cpu = false;
  const eval::GridResult reference =
      eval::run_grid_outcomes(m, core::WeightKind::kUnit, w, plain);

  // First pass journals every cell; second pass must resume all of them
  // (attempts == 0) and reproduce every fingerprint bit-for-bit.
  TempFile f("resume-serial");
  {
    eval::SweepJournal journal(f.path());
    eval::ExperimentOptions opt = plain;
    opt.journal = &journal;
    const auto first = eval::run_grid_outcomes(m, core::WeightKind::kUnit, w, opt);
    EXPECT_EQ(journal.hits(), 0u);
    EXPECT_EQ(grid_fingerprints(first), grid_fingerprints(reference));
  }
  eval::SweepJournal journal(f.path());
  EXPECT_EQ(journal.loaded(), reference.cells.size());
  eval::ExperimentOptions opt = plain;
  opt.journal = &journal;
  const auto resumed = eval::run_grid_outcomes(m, core::WeightKind::kUnit, w, opt);
  EXPECT_EQ(journal.hits(), reference.cells.size());
  EXPECT_EQ(resumed.resumed(), reference.cells.size());
  ASSERT_EQ(resumed.cells.size(), reference.cells.size());
  for (std::size_t i = 0; i < resumed.cells.size(); ++i) {
    EXPECT_EQ(resumed.cells[i].attempts, 0u) << "cell " << i;
    expect_bit_identical(resumed.cells[i].result, reference.cells[i].result);
  }
}

TEST(Journal, ResumedGridIsBitIdenticalThreaded) {
  // Same resume guarantee with a worker pool: journal appends are
  // interleaved across threads, results must still match the serial run.
  const workload::Workload w = test::small_mixed_workload();
  sim::Machine m;
  m.nodes = 16;

  eval::ExperimentOptions plain;
  plain.measure_cpu = false;
  const eval::GridResult reference =
      eval::run_grid_outcomes(m, core::WeightKind::kUnit, w, plain);

  TempFile f("resume-threaded");
  {
    eval::SweepJournal journal(f.path());
    eval::ExperimentOptions opt = plain;
    opt.journal = &journal;
    opt.threads = 4;
    (void)eval::run_grid_outcomes(m, core::WeightKind::kUnit, w, opt);
  }
  eval::SweepJournal journal(f.path());
  eval::ExperimentOptions opt = plain;
  opt.journal = &journal;
  opt.threads = 4;
  const auto resumed = eval::run_grid_outcomes(m, core::WeightKind::kUnit, w, opt);
  EXPECT_EQ(resumed.resumed(), reference.cells.size());
  ASSERT_EQ(resumed.cells.size(), reference.cells.size());
  for (std::size_t i = 0; i < resumed.cells.size(); ++i) {
    expect_bit_identical(resumed.cells[i].result, reference.cells[i].result);
  }
}

TEST(Journal, PartialJournalRerunsOnlyIncompleteCells) {
  // Simulate a killed sweep: journal only the first 5 cells, then resume.
  // The resumed sweep must re-run exactly the other cells and the final
  // fingerprints must match the uninterrupted run.
  const workload::Workload w = test::small_mixed_workload();
  sim::Machine m;
  m.nodes = 16;

  eval::ExperimentOptions plain;
  plain.measure_cpu = false;
  const eval::GridResult reference =
      eval::run_grid_outcomes(m, core::WeightKind::kUnit, w, plain);
  const std::uint64_t wfp = workload::fingerprint(w);

  TempFile f("resume-partial");
  constexpr std::size_t kCompleted = 5;
  {
    eval::SweepJournal journal(f.path());
    for (std::size_t i = 0; i < kCompleted; ++i) {
      const auto& r = reference.cells[i].result;
      journal.record(eval::cell_key(wfp, m.nodes, r.spec, 0), r);
    }
  }
  eval::SweepJournal journal(f.path());
  eval::ExperimentOptions opt = plain;
  opt.journal = &journal;
  const auto resumed = eval::run_grid_outcomes(m, core::WeightKind::kUnit, w, opt);
  EXPECT_EQ(resumed.resumed(), kCompleted);
  ASSERT_EQ(resumed.cells.size(), reference.cells.size());
  for (std::size_t i = 0; i < resumed.cells.size(); ++i) {
    EXPECT_EQ(resumed.cells[i].attempts, i < kCompleted ? 0u : 1u)
        << "cell " << i;
    expect_bit_identical(resumed.cells[i].result, reference.cells[i].result);
  }
  // The re-run cells were appended: a third pass resumes everything.
  eval::SweepJournal full(f.path());
  EXPECT_EQ(full.loaded(), reference.cells.size());
}

TEST(Journal, FaultSweepPointsDoNotCollide) {
  // Two sweep points over the same workload and grid must journal into
  // disjoint keys (label-salted); resuming the sweep resumes both points.
  const workload::Workload w = test::small_mixed_workload();
  sim::Machine m;
  m.nodes = 16;
  std::vector<eval::FaultSweepPoint> points(2);
  points[0].label = "point-a";
  points[1].label = "point-b";

  TempFile f("fault-sweep");
  eval::ExperimentOptions opt;
  opt.measure_cpu = false;
  {
    eval::SweepJournal journal(f.path());
    opt.journal = &journal;
    const auto sweep = eval::run_fault_sweep_outcomes(
        m, core::WeightKind::kUnit, w, points, opt);
    ASSERT_EQ(sweep.size(), 2u);
    EXPECT_EQ(sweep[0].resumed(), 0u);
    EXPECT_EQ(sweep[1].resumed(), 0u);
  }
  eval::SweepJournal journal(f.path());
  EXPECT_EQ(journal.loaded(), 26u);  // 13 cells per point, no collisions
  opt.journal = &journal;
  const auto resumed = eval::run_fault_sweep_outcomes(
      m, core::WeightKind::kUnit, w, points, opt);
  EXPECT_EQ(resumed[0].resumed(), 13u);
  EXPECT_EQ(resumed[1].resumed(), 13u);
}

TEST(Journal, StaleJournalIsDetectedAndSegmented) {
  // A journal written for one workload must not pose as a resume source
  // when the workload changes under the same path: the next sweep drops
  // the stale segment's cells, reports them, and opens a fresh segment.
  const workload::Workload w = test::small_mixed_workload();
  std::vector<Job> jobs(w.jobs().begin(), w.jobs().end());
  jobs[0].estimate += 1;  // field-level fingerprint changes
  const workload::Workload mutated = test::make_workload(std::move(jobs));
  sim::Machine m;
  m.nodes = 16;
  eval::ExperimentOptions plain;
  plain.measure_cpu = false;

  TempFile f("stale-segment");
  std::size_t grid_cells = 0;
  {
    eval::SweepJournal journal(f.path());
    eval::ExperimentOptions opt = plain;
    opt.journal = &journal;
    const auto first =
        eval::run_grid_outcomes(m, core::WeightKind::kUnit, w, opt);
    grid_cells = first.cells.size();
    // Opening a segment in an empty journal is a silent upgrade.
    EXPECT_TRUE(first.journal_note.empty()) << first.journal_note;
    EXPECT_EQ(journal.stale_dropped(), 0u);
  }
  {
    // Same journal path, different workload: every journaled cell is
    // stale. None may resume, and the report must say so.
    eval::SweepJournal journal(f.path());
    EXPECT_EQ(journal.loaded(), grid_cells);
    eval::ExperimentOptions opt = plain;
    opt.journal = &journal;
    const auto second =
        eval::run_grid_outcomes(m, core::WeightKind::kUnit, mutated, opt);
    EXPECT_EQ(journal.stale_dropped(), grid_cells);
    EXPECT_EQ(second.resumed(), 0u);
    EXPECT_NE(second.journal_note.find("stale"), std::string::npos)
        << second.journal_note;
    EXPECT_NE(eval::failure_summary(second).find("stale"), std::string::npos);
  }
  // The fresh segment is a normal resume source for the mutated workload.
  eval::SweepJournal journal(f.path());
  eval::ExperimentOptions opt = plain;
  opt.journal = &journal;
  const auto third =
      eval::run_grid_outcomes(m, core::WeightKind::kUnit, mutated, opt);
  EXPECT_TRUE(third.journal_note.empty()) << third.journal_note;
  EXPECT_EQ(third.resumed(), grid_cells);
  EXPECT_EQ(journal.stale_dropped(), 0u);
}

TEST(Journal, SweepJournalDetectsMidFileCorruption) {
  // A complete record whose bits were flipped must fail loudly on open —
  // resuming from garbage would silently poison a sweep.
  TempFile f("sweep-corrupt");
  {
    eval::SweepJournal journal(f.path());
    journal.record(7, sample_result());
  }
  std::vector<std::string> lines = test::read_lines(f.path());
  std::size_t victim = lines.size();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].rfind("v2 ", 0) == 0) victim = i;
  }
  ASSERT_LT(victim, lines.size());
  lines[victim].back() ^= 1;
  std::remove(f.path().c_str());
  {
    std::ofstream out(f.path());
    for (const std::string& l : lines) out << l << "\n";
  }
  EXPECT_THROW(eval::SweepJournal journal(f.path()),
               util::CorruptRecordError);
}

TEST(Journal, SweepJournalLoadsUncheckedV1Records) {
  // Journals written before per-record checksums (v1 records) must keep
  // resuming bit-identically. Synthesize one by stripping the "v2 <crc>"
  // framing from a fresh journal — the v1 body format is unchanged.
  TempFile f("sweep-v1-compat");
  const eval::RunResult r = sample_result();
  const std::uint64_t key = eval::cell_key(3, 128, r.spec, 0);
  {
    eval::SweepJournal journal(f.path());
    journal.record(key, r);
  }
  std::vector<std::string> rewritten;
  for (const std::string& line : test::read_lines(f.path())) {
    std::string payload;
    if (util::AppendLog::check_record(line, "v2", &payload)) {
      rewritten.push_back("v1 " + payload);
    } else {
      rewritten.push_back(line);  // segment headers are version-agnostic
    }
  }
  std::remove(f.path().c_str());
  {
    util::AppendLog log(f.path());
    for (const std::string& line : rewritten) log.append(line);
  }
  eval::SweepJournal resumed(f.path());
  EXPECT_EQ(resumed.loaded(), 1u);
  eval::RunResult out;
  ASSERT_TRUE(resumed.lookup(key, r.spec, &out));
  expect_bit_identical(r, out);
}

TEST(Journal, LegacyJournalWithoutSegmentsIsAdopted) {
  // Journals written before segment headers existed must keep resuming:
  // their records are adopted into the first opened segment instead of
  // being treated as stale.
  const workload::Workload w = test::small_mixed_workload();
  sim::Machine m;
  m.nodes = 16;
  eval::ExperimentOptions plain;
  plain.measure_cpu = false;

  TempFile f("legacy-adopt");
  std::size_t grid_cells = 0;
  {
    // Journal the grid, then strip the v1seg header line — leaving
    // exactly what a pre-segment writer would have produced.
    eval::SweepJournal journal(f.path());
    eval::ExperimentOptions opt = plain;
    opt.journal = &journal;
    grid_cells =
        eval::run_grid_outcomes(m, core::WeightKind::kUnit, w, opt).cells.size();
  }
  std::vector<std::string> kept;
  for (const std::string& line : test::read_lines(f.path())) {
    if (line.rfind("v1seg", 0) != 0) kept.push_back(line);
  }
  std::remove(f.path().c_str());
  {
    util::AppendLog log(f.path());
    for (const std::string& line : kept) log.append(line);
  }

  eval::SweepJournal journal(f.path());
  EXPECT_EQ(journal.loaded(), grid_cells);
  eval::ExperimentOptions opt = plain;
  opt.journal = &journal;
  const auto resumed =
      eval::run_grid_outcomes(m, core::WeightKind::kUnit, w, opt);
  EXPECT_TRUE(resumed.journal_note.empty()) << resumed.journal_note;
  EXPECT_EQ(resumed.resumed(), grid_cells);
  EXPECT_EQ(journal.stale_dropped(), 0u);
}

}  // namespace
}  // namespace jsched
