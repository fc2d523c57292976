// Standard Workload Format (SWF) I/O.
//
// SWF is the format of the Parallel Workloads Archive (Feitelson [1]) in
// which the CTC SP2 trace used by the paper is published. Each record is a
// whitespace-separated line of 18 fields; comment/header lines start with
// ';'. We consume the fields the rigid-job model needs and preserve the
// semantics the archive documents:
//
//   1 job number        5 run time (s)        8 requested processors
//   2 submit time (s)   4/5 used for runtime  9 requested time (s)
//   3 wait time (s)     7 allocated procs    12 user id
//
// Records with missing (-1) runtime or processors are skipped; a requested
// time of -1 falls back to the run time (exact estimate).
#pragma once

#include <fstream>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "workload/job_source.h"
#include "workload/workload.h"

namespace jsched::workload {

struct SwfReadStats {
  std::size_t lines = 0;
  std::size_t comments = 0;
  std::size_t accepted = 0;
  std::size_t skipped_invalid = 0;   // unusable fields (runtime/procs <= 0)
  std::size_t clamped_estimate = 0;  // estimate raised to runtime
  /// Records dropped by SwfOptions::drop_unsuccessful.
  std::size_t skipped_unsuccessful = 0;
  /// Malformed records skipped by SwfOptions::lenient (always 0 in strict
  /// mode, which throws instead).
  std::size_t skipped_malformed = 0;
};

/// One record the lenient parser rejected.
struct SwfParseIssue {
  std::size_t line = 0;  // 1-based line number in the stream
  std::string reason;    // stable slug, e.g. "short-record"
  std::string text;      // the offending line (truncated to ~120 chars)
};

/// What lenient ingestion skipped and why: totals per reason plus the
/// first few offending lines verbatim — enough to triage a dirty archive
/// trace without re-parsing it.
struct SwfParseReport {
  /// First kMaxSamples rejected records, in stream order.
  static constexpr std::size_t kMaxSamples = 8;

  std::size_t malformed = 0;                      // structurally bad lines
  std::size_t out_of_range = 0;                   // unusable field values
  std::map<std::string, std::size_t> reason_counts;
  std::vector<SwfParseIssue> samples;

  std::size_t total() const noexcept { return malformed + out_of_range; }
  /// One-line human summary, e.g.
  /// "7 records skipped (short-record=5, non-numeric-field=2)".
  std::string summary() const;
};

struct SwfOptions {
  /// Drop records whose SWF status is not "completed" (1): failed (0),
  /// cancelled (5) and partial/unknown codes. Off by default — archive
  /// traces are usually replayed whole, failures included, since even a
  /// failed job occupied its nodes for the recorded runtime.
  bool drop_unsuccessful = false;

  /// Lenient ingestion: malformed records (too few fields, non-numeric
  /// junk, non-finite values, or values the job model cannot hold — see
  /// invalid_job_field in job.h) are skipped and
  /// collected into `report` instead of aborting the whole parse — one bad
  /// line in a multi-million-line archive trace should cost one record,
  /// not the run. Off by default: strict mode throws on the first
  /// malformed line, exactly as before.
  bool lenient = false;

  /// Where lenient mode records what it skipped (optional, not owned).
  /// Reset at the start of each read. Ignored in strict mode.
  SwfParseReport* report = nullptr;

  /// Pre-reserve this many job slots before parsing (0 = no reservation).
  /// read_swf_file fills it from a file-size heuristic automatically.
  std::size_t reserve_hint = 0;
};

namespace detail {

/// Per-line SWF record parser shared by the batch reader (`read_swf`) and
/// the streaming `SwfJobSource`: one call per input line, owning all the
/// strict/lenient skip accounting. Holds pointers to the caller's stats /
/// report (reset on construction); neither is owned.
class SwfLineParser {
 public:
  SwfLineParser(const SwfOptions& options, SwfReadStats& stats);

  /// Parse one line. Returns true and fills `out` (id unassigned) when the
  /// line yields a job record; false for blanks, comments and skipped
  /// records. Throws std::runtime_error on malformed lines in strict mode.
  bool parse(const std::string& line, Job& out);

 private:
  SwfOptions options_;
  SwfReadStats* st_;
  SwfParseReport* report_;
};

}  // namespace detail

/// Parse an SWF stream into a Workload. The status field (field 11) is
/// surfaced as Job::status. Throws std::runtime_error on malformed
/// (non-comment, non-empty) lines unless SwfOptions::lenient is set.
Workload read_swf(std::istream& in, std::string name = "swf",
                  SwfReadStats* stats = nullptr, const SwfOptions& options = {});

/// Convenience file overload; throws std::runtime_error if unreadable.
/// Reserves the job vector up front from a bytes-per-record heuristic over
/// the file size, so multi-million-line traces load without growth copies.
Workload read_swf_file(const std::string& path, SwfReadStats* stats = nullptr,
                       const SwfOptions& options = {});

/// Streaming SWF file reader: pulls one record per next() in O(1) memory,
/// reusing the exact strict/lenient per-line machinery of read_swf.
///
/// Because the stream cannot be sorted after the fact, the trace must
/// already be ordered by submit time (archive traces are); an out-of-order
/// record throws std::runtime_error naming the line. The emitted stream is
/// origin-shifted and densely re-id'd exactly like a finalized Workload.
class SwfJobSource final : public JobSource {
 public:
  /// Opens `path`; throws std::runtime_error if unreadable. `stats` is
  /// optional and filled incrementally as the stream is pulled.
  explicit SwfJobSource(const std::string& path,
                        const SwfOptions& options = {},
                        SwfReadStats* stats = nullptr);

  bool next(Job& out) override;
  const std::string& name() const noexcept override { return name_; }

 private:
  std::ifstream in_;
  SwfReadStats local_stats_;
  SwfReadStats* st_;  // where the parser accounts (caller's or local)
  detail::SwfLineParser parser_;
  std::string line_;
  Time prev_raw_submit_ = 0;
  std::string name_;
};

/// Serialize a workload as SWF (fields we don't model are -1). The output
/// round-trips through read_swf.
void write_swf(std::ostream& out, const Workload& w);
void write_swf_file(const std::string& path, const Workload& w);

}  // namespace jsched::workload
