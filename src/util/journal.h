// Crash-tolerant append-only record log.
//
// The checkpoint/resume layer of the evaluation harness journals one line
// per completed sweep cell; a killed process leaves at worst one torn
// trailing line, which the reader drops. This file is the I/O half only:
// plain newline-terminated text records, appended and flushed one at a
// time and read back one complete record at a time (for_each_line), so
// opening a journal holds one record of it, not the file. The eval and
// serve layers own their record formats; this stays reusable for any
// append-only need (sweep journals, the serve admission journal, the
// shard heartbeat's record count).
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>

#include "util/hash.h"

namespace jsched::util {

/// A complete record whose checksum does not match its payload: the file
/// was bit-flipped (or hand-edited) *mid-file*, which the torn-tail rule
/// cannot explain away. Raised by AppendLog::check_record so journal
/// readers fail loudly instead of replaying garbage.
class CorruptRecordError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// `v` as exactly 16 lowercase hex digits.
std::string hex64(std::uint64_t v);

/// Parse a 16-hex-digit token; returns false on any malformation.
bool parse_hex64(std::string_view token, std::uint64_t* out) noexcept;

/// Chunked text writer over an std::ostream: records are formatted into an
/// internal string (integers via std::to_chars — no locale machinery, no
/// per-field virtual sentry) and handed to the stream in large blocks.
/// This is the shared formatting layer of AppendLog (which drains + flushes
/// per record, the crash-tolerance contract) and of bulk writers like
/// write_swf (which drain every ~256 KiB and turn millions of tiny
/// operator<< calls into a handful of block writes).
class BufferedWriter {
 public:
  /// Buffer up to `flush_threshold` bytes between stream writes. The
  /// destructor drains the buffer but does not flush the stream.
  explicit BufferedWriter(std::ostream& out,
                          std::size_t flush_threshold = 256 * 1024);
  ~BufferedWriter();

  BufferedWriter(const BufferedWriter&) = delete;
  BufferedWriter& operator=(const BufferedWriter&) = delete;

  void append(std::string_view text);
  void append(char c);
  /// Decimal integer, exactly as operator<< would print it.
  void append_int(std::int64_t v);

  /// Drain the buffer into the stream (does not flush the stream itself).
  void drain();

 private:
  void maybe_drain();

  std::ostream* out_;
  std::string buf_;
  std::size_t threshold_;
};

/// Append-only line log. Appends are serialized by an internal mutex and
/// flushed per record, so every record written before a kill survives it.
class AppendLog {
 public:
  /// Per-record durability level. kFlush (the default) flushes to the OS
  /// after every record — survives any process kill, but a power loss can
  /// still eat records the kernel had not written back. kFsync adds an
  /// fsync(2) per record so journals survive power loss too; it is
  /// ~10-100x slower per append and only worth it when a sweep shard is
  /// expensive enough that replaying it beats trusting the page cache.
  enum class Durability { kFlush, kFsync };

  /// The process-wide default: Durability::kFsync when the environment
  /// variable JSCHED_JOURNAL_FSYNC is truthy ("1"/"true"/"yes"/"on"),
  /// kFlush otherwise. Read once per call, so tests can flip it.
  static Durability durability_from_env();

  /// Opens `path` in append mode, creating the file when missing. Throws
  /// std::runtime_error when the file cannot be opened for writing.
  /// `durability` defaults to the JSCHED_JOURNAL_FSYNC environment switch.
  explicit AppendLog(std::string path);
  AppendLog(std::string path, Durability durability);

  ~AppendLog();

  AppendLog(const AppendLog&) = delete;
  AppendLog& operator=(const AppendLog&) = delete;

  const std::string& path() const noexcept { return path_; }

  /// Append one record (a trailing newline is added) and flush. `line`
  /// must not contain '\n' — records are the unit of crash tolerance.
  /// Throws std::invalid_argument on an embedded newline and
  /// std::runtime_error when the write fails.
  void append(std::string_view line);

  /// Append one *checksummed* record: the line written is
  /// `<tag> <fnv1a(payload) as 16 hex digits> <payload>`. The payload may
  /// be empty; neither tag nor payload may contain a newline.
  void append_checked(std::string_view tag, std::string_view payload);

  /// The read half of append_checked. When `line` does not start with
  /// `tag` followed by a space, returns false (not this record kind — the
  /// caller skips or dispatches elsewhere). When it does, verifies the
  /// checksum and stores the payload into `*payload`, returning true; a
  /// checksum/framing mismatch throws CorruptRecordError — a complete line
  /// with the right tag and wrong bits is corruption, never a torn tail.
  static bool check_record(std::string_view line, std::string_view tag,
                           std::string* payload);

  /// Calls `fn` on every *complete* line of `path` (newline stripped), in
  /// file order, reading one line at a time so a journal of any size opens
  /// in O(longest record) memory. A trailing fragment without a final
  /// newline (the footprint of a process killed mid-append) is dropped,
  /// and a missing file reads as empty — both are normal resume
  /// situations, not errors.
  static void for_each_line(const std::string& path,
                            const std::function<void(const std::string&)>& fn);

 private:
  std::string path_;
  std::mutex mu_;
  std::ofstream out_;
  Durability durability_ = Durability::kFlush;
  int fsync_fd_ = -1;  // opened only under Durability::kFsync
};

}  // namespace jsched::util
