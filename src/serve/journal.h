// Durable admission journal: the serve daemon's write-ahead log.
//
// The daemon's decision loop is deterministic given its admission stream
// (that is the subsystem's bit-identity contract with the offline
// simulator), so crash safety does not require checkpointing scheduler
// state — it requires never losing an admission. The journal records, as
// checksummed util::AppendLog records (honoring JSCHED_JOURNAL_FSYNC):
//
//   s1 <crc> run <k>                                   daemon (re)start #k
//   s1 <crc> admit <submit> <nodes> <runtime> <estimate> <user> <flags>
//   s1 <crc> drop <kind>                               consumed + dropped
//   s1 <crc> start <id> <epoch> <t>                    start decision
//   s1 <crc> done <id> <epoch> <t>                     record finalized
//
// Admission records carry no id: ids are dense by admission order, so the
// i-th admit line IS job i — an invariant the replay protocol preserves
// (see below). `flags` packs the late-arrival / delayed-admission bits so
// a resumed run's report counts match an uninterrupted one. `drop` lines
// exist for the same reason (shed/rejected counters) and to make
// "records consumed from the feed" == admits + drops, which is what a
// restart skips when the feed restarts from the beginning.
//
// Replay protocol (serve() with a journal holding history): re-admit every
// journaled job at its original virtual submit time, in journal order, and
// let the deterministic loop re-derive every decision. record_start /
// record_done deduplicate against the loaded history *by (job, epoch)* —
// `epoch` is the job's kill counter under fault injection, so the second
// start of a requeued job is a distinct record, not a duplicate. A
// decision the journal already holds is *suppressed* (not re-appended; the
// return value tells the loop it is replaying) and verified: the same
// (job, epoch) recorded at a different time means the journal belongs to a
// different feed, scheduler or machine, and raises JournalReplayError
// instead of silently writing a forked history. Fresh decisions append as
// usual, so a run killed during replay leaves a journal that still
// satisfies the id-density invariant (suppressed admits are never
// double-written) and can be resumed again — restarts compose.
//
// Memory: the journal keeps only the history it loaded. A fresh admission
// is only counted (the count backs the "never admitted" check) and a fresh
// decision is appended and forgotten, so memory does not grow with service.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/feed.h"
#include "util/journal.h"
#include "util/time.h"
#include "workload/job.h"

namespace jsched::serve {

/// The journal disagrees with the run replaying it: a re-derived decision
/// does not match the recorded one (different feed / spec / machine under
/// the same journal path), or a record references a job the journal never
/// admitted.
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

class AdmissionJournal {
 public:
  /// Opens (creating if missing) the journal at `path` and loads every
  /// complete record; a torn trailing line is ignored. Throws
  /// util::CorruptRecordError on checksum mismatches, JournalReplayError
  /// on structurally impossible histories, std::runtime_error on
  /// unopenable files. Durability defaults to JSCHED_JOURNAL_FSYNC.
  explicit AdmissionJournal(std::string path);
  AdmissionJournal(std::string path, util::AppendLog::Durability durability);

  AdmissionJournal(const AdmissionJournal&) = delete;
  AdmissionJournal& operator=(const AdmissionJournal&) = delete;

  const std::string& path() const noexcept { return log_.path(); }

  // ---- recovered state (what a restarting daemon replays) ----

  /// True when the journal held any admission or drop at open.
  bool has_history() const noexcept { return consumed_at_open_ > 0; }
  /// `run` headers loaded at open == prior daemon starts on this journal.
  std::size_t runs() const noexcept { return runs_; }
  /// Every admission loaded at open, in admission (= JobId) order. Fresh
  /// admissions are not added, so the vector never changes after open.
  const std::vector<JournaledJob>& admitted() const noexcept {
    return admitted_;
  }
  /// Feed records consumed by prior runs (admits + drops): the prefix a
  /// restarted daemon skips when its feed restarts from the beginning.
  std::size_t consumed_feed_records() const noexcept {
    return consumed_at_open_;
  }
  /// Jobs with a journaled `done` record at open.
  std::size_t completed_at_open() const noexcept { return completed_at_open_; }
  /// Latest virtual time the journal knows of (max over admit submits,
  /// starts and dones); 0 when empty. A paced restart resumes its
  /// virtual clock here instead of re-pacing the past.
  Time last_event_time() const noexcept { return last_event_time_; }

  // Dropped-record counters to restore into a resumed ServeReport.
  std::size_t dropped_invalid() const noexcept { return drops_[0]; }
  std::size_t dropped_shed_capacity() const noexcept { return drops_[1]; }
  std::size_t dropped_shed_backlog() const noexcept { return drops_[2]; }
  std::size_t late_at_open() const noexcept { return late_at_open_; }
  std::size_t delayed_at_open() const noexcept { return delayed_at_open_; }

  // ---- write side ----

  /// Append this run's `run` header. Call exactly once, before serving.
  void begin_run();

  /// Journal one fresh admission (`r.submit` already stamped) / one
  /// consumed-but-dropped record. Never called for recovered jobs — the
  /// loop re-admits those from admitted() without touching the file.
  void record_admit(const SubmitRecord& r, bool late, bool delayed);
  void record_drop(DropKind kind);

  /// Journal a start / completion decision of attempt `epoch` of job
  /// `id`. Returns true when the loaded history holds the identical
  /// record (a replayed decision — suppressed, nothing written); false
  /// when it was fresh and appended. Throws JournalReplayError when the
  /// history holds a *different* time for the same (job, epoch), or when
  /// `id` was never admitted.
  bool record_start(JobId id, std::uint32_t epoch, Time t);
  bool record_done(JobId id, std::uint32_t epoch, Time t);

  /// Records appended by *this* process (excludes loaded history). The
  /// chaos-kill knob and the bench's journal-overhead metric count these.
  std::size_t appends() const noexcept { return appends_; }

 private:
  using DecisionMap = std::unordered_map<std::uint64_t, Time>;  // (id,epoch)

  void load();
  void append_record(const std::string& payload);
  bool record_decision(const char* verb, const DecisionMap& map, JobId id,
                       std::uint32_t epoch, Time t);

  util::AppendLog log_;
  std::vector<JournaledJob> admitted_;  // loaded at open
  std::size_t admits_ = 0;              // loaded + fresh: the next JobId
  DecisionMap starts_;                  // loaded at open
  DecisionMap dones_;  // loaded; one entry per finished job (final epoch)
  std::size_t drops_[3] = {0, 0, 0};
  std::size_t runs_ = 0;
  std::size_t consumed_at_open_ = 0;
  std::size_t completed_at_open_ = 0;
  std::size_t late_at_open_ = 0;
  std::size_t delayed_at_open_ = 0;
  Time last_event_time_ = 0;
  std::size_t appends_ = 0;
};

}  // namespace jsched::serve
