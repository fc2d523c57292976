#include "util/journal.h"

#include <algorithm>
#include <charconv>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "util/env.h"

namespace jsched::util {

std::string hex64(std::uint64_t v) {
  char buf[17];
  for (int i = 15; i >= 0; --i) {
    buf[i] = "0123456789abcdef"[v & 0xfu];
    v >>= 4;
  }
  buf[16] = '\0';
  return std::string(buf);
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

AppendLog::Durability AppendLog::durability_from_env() {
  return env_bool("JSCHED_JOURNAL_FSYNC", false) ? Durability::kFsync
                                                 : Durability::kFlush;
}

AppendLog::AppendLog(std::string path)
    : AppendLog(std::move(path), durability_from_env()) {}

AppendLog::AppendLog(std::string path, Durability durability)
    : path_(std::move(path)), durability_(durability) {
  out_.open(path_, std::ios::out | std::ios::app);
  if (!out_) {
    throw std::runtime_error("AppendLog: cannot open for append: " + path_);
  }
  if (durability_ == Durability::kFsync) {
    // fsync(2) takes a file descriptor and the ofstream hides its own, so
    // keep a second descriptor on the same file; fsync flushes the file's
    // dirty pages regardless of which descriptor wrote them.
    fsync_fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    if (fsync_fd_ < 0) {
      throw std::runtime_error("AppendLog: cannot open for fsync: " + path_);
    }
  }
}

AppendLog::~AppendLog() {
  if (fsync_fd_ >= 0) ::close(fsync_fd_);
}

void AppendLog::append(std::string_view line) {
  if (line.find('\n') != std::string_view::npos) {
    throw std::invalid_argument("AppendLog: record contains a newline");
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Format through the shared writer, then flush the stream: the
  // record-at-a-time durability contract is the drain+flush, not the
  // formatting.
  {
    BufferedWriter w(out_, /*flush_threshold=*/0);
    w.append(line);
    w.append('\n');
  }
  out_.flush();
  if (!out_) {
    throw std::runtime_error("AppendLog: write failed: " + path_);
  }
  if (fsync_fd_ >= 0 && ::fsync(fsync_fd_) != 0) {
    throw std::runtime_error("AppendLog: fsync failed: " + path_);
  }
}

void AppendLog::append_checked(std::string_view tag, std::string_view payload) {
  if (tag.empty() || tag.find(' ') != std::string_view::npos) {
    throw std::invalid_argument("AppendLog: bad checked-record tag");
  }
  std::string line;
  line.reserve(tag.size() + payload.size() + 18);
  line.append(tag);
  line.push_back(' ');
  line.append(hex64(fnv1a(payload)));
  if (!payload.empty()) {
    line.push_back(' ');
    line.append(payload);
  }
  append(line);
}

bool AppendLog::check_record(std::string_view line, std::string_view tag,
                             std::string* payload) {
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
  payload->assign(body);
  return true;
}

std::vector<std::string> AppendLog::read_lines(const std::string& path) {
  std::ifstream in(path, std::ios::in | std::ios::binary);
  std::vector<std::string> lines;
  if (!in) return lines;  // no journal yet: a fresh sweep
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string content = buf.str();
  std::size_t pos = 0;
  while (pos < content.size()) {
    const std::size_t nl = content.find('\n', pos);
    if (nl == std::string::npos) break;  // torn trailing record: drop it
    lines.push_back(content.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return lines;
}

}  // namespace jsched::util
