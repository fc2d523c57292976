// Checkpoint/resume journal for evaluation sweeps.
//
// A sweep journal maps a 64-bit *cell key* — the identity of one unit of
// sweep work (workload fingerprint, machine size, algorithm spec, caller
// salt) — to the full RunResult that work produced. Completed cells are
// appended to a text file (one line per cell, flushed per record via
// util::AppendLog, so a SIGKILL costs at most the in-flight cell); a
// re-run with the same journal skips every recorded cell and returns the
// stored result bit-for-bit.
//
// Bit-for-bit matters: RunResult carries the schedule fingerprint the
// perf-tracking workflow compares across runs, and its doubles feed
// golden-number tables. Doubles are therefore serialized as 16-hex-digit
// IEEE-754 bit patterns, not decimal — a resumed sweep is indistinguishable
// from an uninterrupted one, fingerprints included.
//
// Record format (one line, space-separated):
//   v2 <fnv1a(body)> <body>
//   body: <key> <order> <dispatch> <weight> <jobs> <maxq> <kills> <jobs_hit>
//         <12 doubles as hex bit patterns> <schedule_fnv> <scheduler name...>
// The scheduler name is the final field and runs to end of line. New
// records are written checksummed (v2, via util::AppendLog's checked
// records) so mid-file bit corruption raises util::CorruptRecordError
// instead of silently resuming garbage; legacy `v1 <body>` records
// (pre-checksum journals) still load. Unknown leading tags are skipped
// (forward compatibility); a corrupt complete record throws — a journal
// that lies must not silently poison a resume.
//
// Stale-journal detection: a `v1seg <fingerprint>` line marks the start of
// a *segment* — all records after it belong to the sweep identified by
// that fingerprint (workload + machine, see sweep_fingerprint). A sweep
// calls open_segment() before its first lookup: when the journal's live
// segment was written by a *different* sweep (the workload file changed
// under the same journal path, a copy-paste reused a journal, ...), the
// stale cells are dropped from the resume set and a fresh segment header
// is appended, and the caller gets a one-line report to surface. Without
// the header (journals predating segments) records are adopted into the
// first opened segment — exactly the old trust-the-keys behavior.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "eval/experiment.h"
#include "util/journal.h"

namespace jsched::eval {

/// Identity of one sweep cell. Two cells collide only if they would run
/// the exact same simulation: same workload (by field-level fingerprint),
/// machine size, algorithm configuration and caller salt.
std::uint64_t cell_key(std::uint64_t workload_fnv, int machine_nodes,
                       const core::AlgorithmSpec& spec,
                       std::uint64_t salt) noexcept;

/// Identity of the sweep a journal segment belongs to: the workload
/// (field-level fingerprint) and the machine it runs on. Deliberately
/// spec-free — one segment holds every cell of a grid (and every point of
/// a fault sweep) over that workload.
std::uint64_t sweep_fingerprint(std::uint64_t workload_fnv,
                                int machine_nodes) noexcept;

class SweepJournal {
 public:
  /// Opens (creating if missing) the journal at `path` and loads every
  /// complete record; a torn trailing line from a killed writer is
  /// ignored. Throws std::runtime_error on unopenable files or corrupt
  /// complete records.
  explicit SweepJournal(std::string path);

  SweepJournal(const SweepJournal&) = delete;
  SweepJournal& operator=(const SweepJournal&) = delete;

  const std::string& path() const noexcept { return log_.path(); }
  /// Records loaded (and kept as resume candidates) at construction.
  /// Records superseded by a later segment header are not counted — their
  /// staleness was reported when that segment first opened.
  std::size_t loaded() const noexcept { return loaded_; }
  /// Lookups that returned a stored result so far.
  std::size_t hits() const noexcept;
  /// Complete cell records in the journal at `path` (v2 and legacy v1;
  /// segment headers and a torn tail are not counted), read without
  /// loading them; a missing file counts 0. Each finished cell appends one
  /// record, so this is the shard coordinator's progress heartbeat.
  static std::size_t count_cells(const std::string& path);

  /// Bind the journal to the sweep identified by `fingerprint`
  /// (sweep_fingerprint of the workload about to run). Cells recorded
  /// under a different segment fingerprint are stale — they describe a
  /// sweep that no longer exists — and are dropped from the resume set; a
  /// fresh `v1seg` header is appended so subsequent records land in the
  /// new segment. Records from pre-segment journals (no header) are
  /// adopted rather than dropped. Returns a one-line report when stale
  /// cells were detected, "" otherwise. Idempotent per fingerprint;
  /// thread-safe.
  std::string open_segment(std::uint64_t fingerprint);
  /// Stale cells dropped by open_segment() so far.
  std::size_t stale_dropped() const noexcept;

  /// If `key` is journaled, copy the stored result into `*out` and return
  /// true. The stored algorithm spec is verified against `spec`: a
  /// mismatch (key collision or corrupt journal) throws std::runtime_error
  /// rather than resuming the wrong work.
  bool lookup(std::uint64_t key, const core::AlgorithmSpec& spec,
              RunResult* out);

  /// Record a completed cell (appends + flushes one line). Thread-safe.
  void record(std::uint64_t key, const RunResult& r);

  /// Copy of every resumable cell (key -> stored result), in ascending key
  /// order. This is the read side of the shard-merge step: a coordinator
  /// drains each shard journal's cells and re-records them into one merged
  /// journal. Thread-safe.
  std::vector<std::pair<std::uint64_t, RunResult>> snapshot() const;

 private:
  /// Adopted-legacy marker: records written before segment headers
  /// existed. Matched by the first open_segment() regardless of its
  /// fingerprint.
  static constexpr std::uint64_t kLegacySegment = 0;

  struct Cell {
    std::uint64_t segment = kLegacySegment;
    RunResult result;
  };

  util::AppendLog log_;
  mutable std::mutex mu_;
  std::map<std::uint64_t, Cell> cells_;
  std::uint64_t segment_ = kLegacySegment;  // live (last) segment in the file
  std::size_t loaded_ = 0;
  std::size_t hits_ = 0;
  std::size_t stale_dropped_ = 0;
};

}  // namespace jsched::eval
