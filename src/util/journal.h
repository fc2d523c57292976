// Crash-tolerant append-only record log.
//
// The checkpoint/resume layer of the evaluation harness journals one line
// per completed sweep cell; a killed process leaves at worst one torn
// trailing line, which the reader drops and the next writer cuts off. This
// file is the I/O half only: plain newline-terminated text records, each
// appended with one write(2) and read back one complete record at a time
// from 64 KiB blocks (LineReader, for_each_line), so opening a journal
// holds one block of it, not the file. The eval and serve layers own their
// record formats; this stays reusable for any append-only need (sweep
// journals, the serve admission journal, the shard heartbeat's record
// count).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

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

/// Writes `v` as exactly 16 lowercase hex digits at `out`; returns out + 16.
char* write_hex64(char* out, std::uint64_t v) noexcept;

/// `v` as exactly 16 lowercase hex digits.
std::string hex64(std::uint64_t v);

/// Parse a 16-hex-digit token; returns false on any malformation.
bool parse_hex64(std::string_view token, std::uint64_t* out) noexcept;

/// Chunked text writer over an std::ostream: records are formatted into an
/// internal string (integers via std::to_chars — no locale machinery, no
/// per-field virtual sentry) and handed to the stream in large blocks, so
/// bulk writers like write_swf turn millions of tiny operator<< calls into
/// a handful of block writes (one every ~256 KiB).
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

/// Reads the complete lines of a file front to back, 64 KiB at a time,
/// stopping after `limit` bytes. A trailing fragment without a final
/// newline (the footprint of a process killed mid-append) is never
/// returned, and a missing file reads as empty — both are normal resume
/// situations, not errors. Throws std::runtime_error when a read fails.
class LineReader {
 public:
  static constexpr std::uint64_t kNoLimit =
      std::numeric_limits<std::uint64_t>::max();

  explicit LineReader(const std::string& path, std::uint64_t limit = kNoLimit);
  ~LineReader();

  LineReader(const LineReader&) = delete;
  LineReader& operator=(const LineReader&) = delete;

  /// The next complete line, newline stripped, into `line` (valid until
  /// the next call); false once no complete line is left.
  bool next(std::string_view& line);

  /// Bytes of the lines returned so far, newlines included.
  std::uint64_t consumed() const noexcept { return consumed_; }

 private:
  bool fill();

  int fd_ = -1;
  std::uint64_t unread_ = 0;  // bytes the limit still allows
  std::uint64_t consumed_ = 0;
  std::vector<char> buf_;
  std::size_t begin_ = 0;  // buf_[begin_, end_) is read, not yet returned
  std::size_t end_ = 0;
};

/// Append-only line log over one O_APPEND descriptor. Each record is
/// formatted into a buffer and handed to the OS in one write(2), under an
/// internal mutex, so every record written before a kill survives it.
class AppendLog {
 public:
  /// Per-record durability level. kFlush (the default) hands each record
  /// to the OS before returning — survives any process kill, but a power
  /// loss can still eat records the kernel had not written back. kFsync
  /// adds an fsync(2) per record so journals survive power loss too; it is
  /// ~10-100x slower per append and only worth it when a sweep shard is
  /// expensive enough that replaying it beats trusting the page cache.
  enum class Durability { kFlush, kFsync };

  /// The process-wide default: Durability::kFsync when the environment
  /// variable JSCHED_JOURNAL_FSYNC is truthy ("1"/"true"/"yes"/"on"),
  /// kFlush otherwise. Read once per call, so tests can flip it.
  static Durability durability_from_env();

  /// Opens `path` for appending, creating the file when missing, and cuts
  /// a torn final record (bytes after the last newline) off the file, so
  /// the next record starts a line of its own instead of merging into the
  /// fragment. Throws std::runtime_error when the file cannot be opened
  /// for writing or cut. `durability` defaults to the JSCHED_JOURNAL_FSYNC
  /// environment switch.
  explicit AppendLog(std::string path);
  AppendLog(std::string path, Durability durability);

  ~AppendLog();

  AppendLog(const AppendLog&) = delete;
  AppendLog& operator=(const AppendLog&) = delete;

  const std::string& path() const noexcept { return path_; }

  /// Append one record (a trailing newline is added) with one write(2).
  /// `line` must not contain '\n' — records are the unit of crash
  /// tolerance. Throws std::invalid_argument on an embedded newline and
  /// std::runtime_error when the write fails.
  void append(std::string_view line);

  /// Append one *checksummed* record: the line written is
  /// `<tag> <fnv1a(payload) as 16 hex digits> <payload>`. The payload may
  /// be empty; neither tag nor payload may contain a newline.
  void append_checked(std::string_view tag, std::string_view payload);

  /// The read half of append_checked. When `line` does not start with
  /// `tag` followed by a space, returns false (not this record kind — the
  /// caller skips or dispatches elsewhere). When it does, verifies the
  /// checksum and points `*payload` into `line` (stores `*checksum` when
  /// given), returning true; a checksum/framing mismatch throws
  /// CorruptRecordError — a complete line with the right tag and wrong
  /// bits is corruption, never a torn tail.
  static bool check_record(std::string_view line, std::string_view tag,
                           std::string_view* payload,
                           std::uint64_t* checksum = nullptr);
  /// As above, copying the payload into `*payload`.
  static bool check_record(std::string_view line, std::string_view tag,
                           std::string* payload);

  /// Calls `fn` on every complete line of `path` (newline stripped), in
  /// file order, through a LineReader: a torn trailing fragment is dropped
  /// and a missing file reads as empty.
  static void for_each_line(const std::string& path,
                            const std::function<void(std::string_view)>& fn);

 private:
  void write_buffered();  // buf_ to the file, then fsync under kFsync

  std::string path_;
  Durability durability_ = Durability::kFlush;
  int fd_ = -1;
  std::mutex mu_;    // serializes appends; guards buf_
  std::string buf_;  // the record being appended
};

}  // namespace jsched::util
