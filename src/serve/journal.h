// Durable admission journal: the serve daemon's write-ahead log.
//
// The daemon's decision loop is deterministic given its admission stream
// (the subsystem's bit-identity contract with the offline simulator), so
// crash safety needs no scheduler state and no decisions, only every
// admission. Checksummed util::AppendLog records (JSCHED_JOURNAL_FSYNC):
//
//   s1 <crc> run <k>                                   daemon (re)start #k
//   s1 <crc> admit <submit> <nodes> <runtime> <estimate> <user> <flags>
//   s1 <crc> drop <kind>                               consumed + dropped
//   s1 <crc> digest <t> <dones> <sum>                  decisions up to t
//
// The i-th admit line is job i (ids are dense by admission order). `flags`
// holds the late / delayed bits and `drop` lines the shed and rejected
// counts, so a resumed run's report matches an uninterrupted one; admits +
// drops are the feed records a restart skips when its feed restarts from
// the beginning. A digest holds serve()'s decision digest (hex `sum`,
// serve/daemon.h) and the completions `dones` at instants <= t; the loader
// checks only that t and dones never decrease and that dones never exceeds
// the admits before it. Journals written before digests existed hold
// `start`/`done` records; they are skipped like any unknown verb, so those
// journals load and their decisions are re-derived unchecked.
//
// Opening checks every record and keeps counters and the digests, not the
// admissions: a restart pulls those back from the file through a Replay,
// which re-reads exactly the bytes checked at open. Nothing appended
// afterwards is kept.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "serve/feed.h"
#include "util/journal.h"
#include "util/time.h"

namespace jsched::serve {

/// The journal disagrees with the run replaying it: a re-derived decision
/// digest does not match the journaled one (different feed / spec /
/// machine / fault trace under the same journal path), or a record is
/// structurally impossible.
class JournalReplayError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Why a consumed feed record was not admitted.
enum class DropKind : int {
  kInvalid = 0,       // malformed / wider than the machine
  kShedCapacity = 1,  // admission queue full under kShed
  kShedBacklog = 2,   // max_backlog guard
};

/// One admitted submission as recovered from the journal. `record.submit`
/// is the original (already stamped) virtual time.
struct JournaledJob {
  SubmitRecord record;
  bool late = false;     // was clamped forward at original admission
  bool delayed = false;  // was admitted from holdover under kBlock
};

/// One `digest` record: the decisions made at instants <= t.
struct DecisionDigest {
  Time t = 0;
  std::size_t dones = 0;  // completions
  std::uint64_t sum = 0;  // wrapping sum of the decision hashes
};

class AdmissionJournal {
 public:
  /// Opens (creating if missing) the journal at `path` and loads every
  /// complete record; a torn trailing line is ignored. Throws
  /// util::CorruptRecordError on checksum mismatches, JournalReplayError
  /// on structurally impossible histories, std::runtime_error on
  /// unopenable files. Durability defaults to JSCHED_JOURNAL_FSYNC.
  explicit AdmissionJournal(std::string path,
                            util::AppendLog::Durability durability =
                                util::AppendLog::durability_from_env());

  AdmissionJournal(const AdmissionJournal&) = delete;
  AdmissionJournal& operator=(const AdmissionJournal&) = delete;

  const std::string& path() const noexcept { return log_.path(); }

  // ---- recovered state (what a restarting daemon replays) ----

  /// True when the journal held any admission or drop at open.
  bool has_history() const noexcept { return consumed_at_open_ > 0; }
  /// `run` headers loaded at open == prior daemon starts on this journal.
  std::size_t runs() const noexcept { return runs_; }
  /// Admissions loaded at open; Replay yields them. Fresh admissions are
  /// not counted.
  std::size_t admitted_count() const noexcept { return admitted_; }
  /// Submit time of the last admission loaded at open (0 without one).
  Time last_admit_time() const noexcept { return last_admit_time_; }
  /// Every digest loaded at open, in journal order; never changes after.
  const std::vector<DecisionDigest>& digests() const noexcept {
    return digests_;
  }
  /// Feed records consumed by prior runs (admits + drops): the prefix a
  /// restarted daemon skips when its feed restarts from the beginning.
  std::size_t consumed_feed_records() const noexcept {
    return consumed_at_open_;
  }
  /// Completions the last loaded digest covers (0 without one).
  std::size_t completed_at_open() const noexcept {
    return digests_.empty() ? 0 : digests_.back().dones;
  }
  /// Latest virtual time the journal knows of (max over admit submits and
  /// digest instants); 0 when empty. A paced restart resumes its virtual
  /// clock here instead of re-pacing the past.
  Time last_event_time() const noexcept { return last_event_time_; }

  // Dropped-record counters to restore into a resumed ServeReport.
  std::size_t dropped_invalid() const noexcept { return drops_[0]; }
  std::size_t dropped_shed_capacity() const noexcept { return drops_[1]; }
  std::size_t dropped_shed_backlog() const noexcept { return drops_[2]; }
  std::size_t late_at_open() const noexcept { return late_at_open_; }
  std::size_t delayed_at_open() const noexcept { return delayed_at_open_; }

  /// Pulls the admissions loaded at open back from the file, in admission
  /// order: re-reads the bytes checked at open, in blocks through its own
  /// descriptor, and re-verifies and parses each record as open did, so
  /// records appended since (this run's) are never read. Throws
  /// JournalReplayError when the file no longer yields the admissions
  /// counted at open (cut or rewritten since); the journal must outlive it.
  class Replay {
   public:
    explicit Replay(const AdmissionJournal& journal);

    /// The next admission into `out`; false once all admitted_count()
    /// were taken.
    bool next(JournaledJob& out);

   private:
    const AdmissionJournal* journal_;
    util::LineReader in_;
    std::size_t line_no_ = 0;
    std::size_t taken_ = 0;
    std::uint64_t admits_fnv_ = util::kFnvOffset;  // over admit checksums
  };

  // ---- write side ----

  /// Append this run's `run` header. Call exactly once, before serving.
  void begin_run();

  /// Journal one fresh admission (`r.submit` already stamped) / one
  /// consumed-but-dropped record / one decision digest. Never called for
  /// recovered jobs — the loop re-admits those through a Replay without
  /// appending.
  void record_admit(const SubmitRecord& r, bool late, bool delayed);
  void record_drop(DropKind kind);
  void record_digest(const DecisionDigest& digest);

  /// Records appended by *this* process (excludes loaded history). The
  /// chaos-kill knob and the bench's journal-overhead metric count these.
  std::size_t appends() const noexcept { return appends_; }

 private:
  void load();
  void append_record(std::string_view payload);

  util::AppendLog log_;
  std::vector<DecisionDigest> digests_;  // loaded at open
  std::size_t admitted_ = 0;             // loaded at open
  std::uint64_t admits_fnv_ = util::kFnvOffset;  // over their checksums
  std::uint64_t loaded_bytes_ = 0;  // the complete records read at open
  std::size_t drops_[3] = {0, 0, 0};
  std::size_t runs_ = 0;
  std::size_t consumed_at_open_ = 0;
  std::size_t late_at_open_ = 0;
  std::size_t delayed_at_open_ = 0;
  Time last_admit_time_ = 0;
  Time last_event_time_ = 0;
  std::size_t appends_ = 0;
};

}  // namespace jsched::serve
