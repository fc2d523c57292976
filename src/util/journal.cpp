#include "util/journal.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <ostream>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/env.h"

namespace jsched::util {

namespace {

constexpr std::size_t kBlockBytes = 64 * 1024;

/// Cuts the bytes after the last newline off the file open for writing as
/// `fd` at `path`, when it is a regular file; false when that fails. Scans
/// back from the end, so a complete journal costs one short read.
bool cut_torn_tail(int fd, const std::string& path) {
  struct stat st {};
  if (::fstat(fd, &st) != 0) return false;
  if (!S_ISREG(st.st_mode) || st.st_size == 0) return true;
  const int in = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (in < 0) return false;
  char block[4096];
  auto end = static_cast<std::uint64_t>(st.st_size);
  bool ok = true;
  while (end > 0) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(sizeof(block), end));
    const ssize_t got = ::pread(in, block, n, static_cast<off_t>(end - n));
    if (got < 0 && errno == EINTR) continue;
    if (got != static_cast<ssize_t>(n)) {
      ok = false;
      break;
    }
    const char* nl = static_cast<const char*>(::memrchr(block, '\n', n));
    if (nl != nullptr) {
      end -= n - static_cast<std::size_t>(nl - block) - 1;
      break;
    }
    end -= n;
  }
  ::close(in);
  return ok && (end == static_cast<std::uint64_t>(st.st_size) ||
                ::ftruncate(fd, static_cast<off_t>(end)) == 0);
}

}  // namespace

char* write_hex64(char* out, std::uint64_t v) noexcept {
  for (int i = 15; i >= 0; --i) {
    out[i] = "0123456789abcdef"[v & 0xfu];
    v >>= 4;
  }
  return out + 16;
}

std::string hex64(std::uint64_t v) {
  char buf[16];
  write_hex64(buf, v);
  return std::string(buf, sizeof(buf));
}

bool parse_hex64(std::string_view token, std::uint64_t* out) noexcept {
  if (token.size() != 16) return false;
  std::uint64_t v = 0;
  for (const char c : token) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  *out = v;
  return true;
}

BufferedWriter::BufferedWriter(std::ostream& out, std::size_t flush_threshold)
    : out_(&out), threshold_(flush_threshold) {
  buf_.reserve(threshold_ + 64);
}

BufferedWriter::~BufferedWriter() { drain(); }

void BufferedWriter::append(std::string_view text) {
  buf_.append(text);
  maybe_drain();
}

void BufferedWriter::append(char c) {
  buf_.push_back(c);
  maybe_drain();
}

void BufferedWriter::append_int(std::int64_t v) {
  char digits[24];
  const auto [end, ec] = std::to_chars(digits, digits + sizeof(digits), v);
  buf_.append(digits, static_cast<std::size_t>(end - digits));
  maybe_drain();
}

void BufferedWriter::drain() {
  if (buf_.empty()) return;
  out_->write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  buf_.clear();
}

void BufferedWriter::maybe_drain() {
  if (buf_.size() >= threshold_) drain();
}

LineReader::LineReader(const std::string& path, std::uint64_t limit)
    : fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)),
      unread_(limit),
      buf_(kBlockBytes) {}

LineReader::~LineReader() {
  if (fd_ >= 0) ::close(fd_);
}

bool LineReader::next(std::string_view& line) {
  while (true) {
    const char* first = buf_.data() + begin_;
    const char* nl =
        static_cast<const char*>(std::memchr(first, '\n', end_ - begin_));
    if (nl != nullptr) {
      const auto length = static_cast<std::size_t>(nl - first);
      line = std::string_view(first, length);
      begin_ += length + 1;
      consumed_ += length + 1;
      return true;
    }
    if (!fill()) return false;  // what is left is a torn fragment
  }
}

bool LineReader::fill() {
  if (fd_ < 0 || unread_ == 0) return false;
  // Keep the partial line at the front; grow only for a line longer than
  // the buffer.
  std::memmove(buf_.data(), buf_.data() + begin_, end_ - begin_);
  end_ -= begin_;
  begin_ = 0;
  if (end_ == buf_.size()) buf_.resize(2 * buf_.size());
  const std::size_t want = static_cast<std::size_t>(
      std::min<std::uint64_t>(buf_.size() - end_, unread_));
  ssize_t got = 0;
  do {
    got = ::read(fd_, buf_.data() + end_, want);
  } while (got < 0 && errno == EINTR);
  if (got < 0) throw std::runtime_error("LineReader: read failed");
  if (got == 0) return false;
  end_ += static_cast<std::size_t>(got);
  unread_ -= static_cast<std::uint64_t>(got);
  return true;
}

AppendLog::Durability AppendLog::durability_from_env() {
  return env_bool("JSCHED_JOURNAL_FSYNC", false) ? Durability::kFsync
                                                 : Durability::kFlush;
}

AppendLog::AppendLog(std::string path)
    : AppendLog(std::move(path), durability_from_env()) {}

AppendLog::AppendLog(std::string path, Durability durability)
    : path_(std::move(path)), durability_(durability) {
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0666);
  if (fd_ < 0) {
    throw std::runtime_error("AppendLog: cannot open for append: " + path_);
  }
  // A kill mid-append leaves a fragment after the last newline. Readers
  // drop it, but the next record would extend it into one line that fails
  // its checksum, so the writer cuts it before appending anything.
  if (!cut_torn_tail(fd_, path_)) {
    ::close(fd_);
    throw std::runtime_error("AppendLog: cannot cut torn tail: " + path_);
  }
}

AppendLog::~AppendLog() { ::close(fd_); }

void AppendLog::append(std::string_view line) {
  if (line.find('\n') != std::string_view::npos) {
    throw std::invalid_argument("AppendLog: record contains a newline");
  }
  std::lock_guard<std::mutex> lock(mu_);
  buf_.assign(line);
  buf_.push_back('\n');
  write_buffered();
}

void AppendLog::append_checked(std::string_view tag, std::string_view payload) {
  if (tag.empty() || tag.find_first_of(" \n") != std::string_view::npos) {
    throw std::invalid_argument("AppendLog: bad checked-record tag");
  }
  if (payload.find('\n') != std::string_view::npos) {
    throw std::invalid_argument("AppendLog: record contains a newline");
  }
  std::lock_guard<std::mutex> lock(mu_);
  buf_.assign(tag);
  buf_.push_back(' ');
  char crc[16];
  buf_.append(crc, write_hex64(crc, fnv1a(payload)));
  if (!payload.empty()) {
    buf_.push_back(' ');
    buf_.append(payload);
  }
  buf_.push_back('\n');
  write_buffered();
}

void AppendLog::write_buffered() {
  // One write(2) per record: the record reaches the OS whole or, if the
  // process dies inside the call, as a fragment the next open cuts. Loop
  // only for what a short write or a signal leaves.
  const char* p = buf_.data();
  std::size_t left = buf_.size();
  while (left > 0) {
    const ssize_t n = ::write(fd_, p, left);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("AppendLog: write failed: " + path_);
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  if (durability_ == Durability::kFsync && ::fsync(fd_) != 0) {
    throw std::runtime_error("AppendLog: fsync failed: " + path_);
  }
}

bool AppendLog::check_record(std::string_view line, std::string_view tag,
                             std::string_view* payload,
                             std::uint64_t* checksum) {
  if (line.size() < tag.size() + 1 || line.compare(0, tag.size(), tag) != 0 ||
      line[tag.size()] != ' ') {
    return false;
  }
  const auto corrupt = [&](const char* what) -> CorruptRecordError {
    return CorruptRecordError("corrupt journal record (" + std::string(what) +
                              "): " +
                              std::string(line.substr(0, 48)) +
                              (line.size() > 48 ? "..." : ""));
  };
  std::string_view rest = line.substr(tag.size() + 1);
  const std::string_view crc_token = rest.substr(0, std::min<std::size_t>(
                                                        rest.find(' '), 16));
  std::uint64_t crc = 0;
  if (!parse_hex64(crc_token, &crc)) throw corrupt("bad checksum field");
  std::string_view body;
  if (rest.size() > 16) {
    if (rest[16] != ' ') throw corrupt("bad checksum field");
    body = rest.substr(17);
  }
  if (fnv1a(body) != crc) throw corrupt("checksum mismatch");
  *payload = body;
  if (checksum != nullptr) *checksum = crc;
  return true;
}

bool AppendLog::check_record(std::string_view line, std::string_view tag,
                             std::string* payload) {
  std::string_view body;
  if (!check_record(line, tag, &body)) return false;
  payload->assign(body);
  return true;
}

void AppendLog::for_each_line(
    const std::string& path, const std::function<void(std::string_view)>& fn) {
  LineReader in(path);
  std::string_view line;
  while (in.next(line)) fn(line);
}

}  // namespace jsched::util
