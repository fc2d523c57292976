#include "serve/feed.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

namespace jsched::serve {

namespace {

/// Split `line` into whitespace-separated tokens (no allocation per char).
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    std::size_t j = i;
    while (j < line.size() && line[j] != ' ' && line[j] != '\t') ++j;
    if (j > i) tokens.emplace_back(line.substr(i, j - i));
    i = j;
  }
  return tokens;
}

bool to_i64(const std::string& s, std::int64_t& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  out = v;
  return true;
}

ParseResult fail(std::string* error, const std::string& why) {
  if (error != nullptr) *error = why;
  return ParseResult::kError;
}

}  // namespace

ParseResult parse_submit_line(const std::string& line, SubmitRecord& out,
                              std::string* error) {
  // Strip a trailing CR so socket clients may send CRLF.
  std::string body = line;
  if (!body.empty() && body.back() == '\r') body.pop_back();
  const std::size_t first = body.find_first_not_of(" \t");
  if (first == std::string::npos) return ParseResult::kSkip;
  if (body[first] == '#') return ParseResult::kSkip;

  std::vector<std::string> tokens = tokenize(body);
  if (tokens.size() == 1 && tokens[0] == "end") return ParseResult::kEnd;

  // Token i holds field i + 1 - k in JobField order (submit, nodes,
  // runtime, estimate, user), read as the int64 it spells and bounded by
  // the job check before anything narrows it. A live record checks as
  // submit 0 and a record without a user as user 0: both always fit.
  const std::size_t k = tokens[0][0] == '@' ? 1 : 0;
  if (tokens.size() - k < 3 || tokens.size() - k > 4) {
    return fail(error,
                "expected [@submit] nodes runtime estimate [user]: " + body);
  }
  constexpr const char* kLabels[] = {"@submit", "nodes", "runtime",
                                     "estimate", "user"};
  const auto bad = [&](std::size_t field) {
    return fail(error, std::string("bad ") + kLabels[field] +
                           " field: " + tokens[field + k - 1]);
  };
  std::int64_t value[5] = {0, 0, 0, 0, 0};
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::size_t field = i + 1 - k;
    const std::string& text = field == 0 ? tokens[i].substr(1) : tokens[i];
    if (!to_i64(text, value[field])) return bad(field);
  }
  if (const auto field =
          invalid_job_field(value[0], value[1], value[2], value[3], value[4])) {
    return bad(static_cast<std::size_t>(*field));
  }
  SubmitRecord r;
  r.submit = k == 1 ? value[0] : -1;
  r.nodes = static_cast<int>(value[1]);
  r.runtime = value[2];
  r.estimate = value[3];
  r.user = static_cast<std::int32_t>(value[4]);
  out = r;
  return ParseResult::kRecord;
}

// ------------------------------------------------------------- JobSourceFeed

JobSourceFeed::JobSourceFeed(workload::JobSource& source) : source_(&source) {
  pull();
}

void JobSourceFeed::pull() { has_pending_ = source_->next(pending_); }

bool JobSourceFeed::poll(Time vnow, std::vector<SubmitRecord>& out) {
  while (has_pending_ && pending_.submit <= vnow) {
    SubmitRecord r;
    r.submit = pending_.submit;
    r.nodes = pending_.nodes;
    r.runtime = pending_.runtime;
    r.estimate = pending_.estimate;
    r.user = pending_.user;
    out.push_back(r);
    pull();
  }
  return has_pending_;
}

Time JobSourceFeed::next_submit() const {
  return has_pending_ ? pending_.submit : kTimeInfinity;
}

// ---------------------------------------------------------------- LineReader

namespace {

enum class ReadEnd { kWouldBlock, kEof, kError };

/// Append everything `fd` has to `buffer`, retrying EINTR, until a read
/// would block, hits EOF or fails (errno then names the failure).
ReadEnd read_available(int fd, std::string& buffer) {
  char buf[16384];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      buffer.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return ReadEnd::kEof;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return ReadEnd::kWouldBlock;
    return ReadEnd::kError;
  }
}

}  // namespace

namespace detail {

void LineReader::take_lines(std::string& buffer, bool at_end) {
  // A final line without a trailing newline is still a line once the input
  // is over: terminate it instead of dropping it silently.
  if (at_end && !buffer.empty() && buffer.back() != '\n') {
    buffer.push_back('\n');
  }
  std::size_t start = 0;
  while (true) {
    const std::size_t nl = buffer.find('\n', start);
    if (nl == std::string::npos) break;
    const std::string line = buffer.substr(start, nl - start);
    start = nl + 1;
    if (closed_) continue;  // protocol over; drop trailing lines
    SubmitRecord r;
    std::string err;
    switch (parse_submit_line(line, r, &err)) {
      case ParseResult::kRecord:
        parsed_.push_back(r);
        break;
      case ParseResult::kEnd:
        close();
        break;
      case ParseResult::kError:
        ++parse_errors_;
        std::fprintf(stderr, "feed: %s\n", err.c_str());
        break;
      case ParseResult::kSkip:
        break;
    }
  }
  buffer.erase(0, start);
}

bool LineReader::deliver(Time vnow, std::vector<SubmitRecord>& out) {
  while (!parsed_.empty()) {
    const SubmitRecord& front = parsed_.front();
    if (front.submit >= 0 && front.submit > vnow) break;
    out.push_back(front);
    parsed_.pop_front();
  }
  return !(closed_ && parsed_.empty());
}

Time LineReader::next_submit() const {
  if (!parsed_.empty() && parsed_.front().submit >= 0) {
    return parsed_.front().submit;
  }
  return kTimeInfinity;
}

}  // namespace detail

// ---------------------------------------------------------------- FdLineFeed

FdLineFeed::FdLineFeed(int fd, bool tail, bool close_fd)
    : fd_(fd), tail_(tail), close_fd_(close_fd) {
  const int flags = fcntl(fd_, F_GETFL, 0);
  if (flags >= 0) fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
}

FdLineFeed::~FdLineFeed() {
  if (close_fd_ && fd_ >= 0) ::close(fd_);
}

bool FdLineFeed::poll(Time vnow, std::vector<SubmitRecord>& out) {
  if (!lines_.closed()) {
    const ReadEnd end = read_available(fd_, partial_);
    // A hard error (EBADF, EIO, ...) means this fd will never produce data
    // again: end the feed even in tail mode so the daemon doesn't poll
    // forever. In tail mode EOF just means "caught up" — keep watching.
    if (end == ReadEnd::kError) {
      std::fprintf(stderr, "feed: read: %s\n", std::strerror(errno));
    }
    const bool over =
        end == ReadEnd::kError || (end == ReadEnd::kEof && !tail_);
    lines_.take_lines(partial_, over);
    if (over) lines_.close();
  }
  return lines_.deliver(vnow, out);
}

// ------------------------------------------------------------------- TcpFeed

TcpFeed::TcpFeed(std::uint16_t port) : listen_fd_(-1), port_(0) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("TcpFeed: socket() failed");
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // localhost only
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("TcpFeed: cannot bind 127.0.0.1:" +
                             std::to_string(port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
}

TcpFeed::~TcpFeed() {
  for (const Client& c : clients_) ::close(c.fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void TcpFeed::accept_clients() {
  constexpr std::chrono::milliseconds kBackoffMin{10};
  constexpr std::chrono::milliseconds kBackoffMax{2000};
  if (accept_backoff_.count() > 0 &&
      std::chrono::steady_clock::now() < accept_retry_at_) {
    return;  // still backing off after resource exhaustion
  }
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd >= 0) {
      accept_backoff_ = std::chrono::milliseconds{0};
      clients_.push_back(Client{fd, {}});
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      accept_backoff_ = std::chrono::milliseconds{0};
      return;  // no pending connections
    }
    if (errno == ECONNABORTED) {
      // The peer gave up during the handshake; its slot in the backlog is
      // simply gone. Count it, take the next pending connection.
      ++transient_accept_errors_;
      continue;
    }
    if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
        errno == ENOMEM) {
      // Resource exhaustion is transient by definition — fds free up when
      // clients hang up. Killing the listener here would turn a burst of
      // connections into a permanent outage; back off instead (capped
      // exponential: retrying instantly would busy-loop on EMFILE) and
      // keep serving the clients already connected.
      ++transient_accept_errors_;
      accept_backoff_ = accept_backoff_.count() == 0
                            ? kBackoffMin
                            : std::min(accept_backoff_ * 2, kBackoffMax);
      accept_retry_at_ = std::chrono::steady_clock::now() + accept_backoff_;
      std::fprintf(stderr,
                   "feed: accept: %s (transient; retrying in %lldms)\n",
                   std::strerror(errno),
                   static_cast<long long>(accept_backoff_.count()));
      return;
    }
    // Anything else is unexpected; log it and keep the listener alive —
    // established clients are unaffected either way.
    std::fprintf(stderr, "feed: accept: %s\n", std::strerror(errno));
    return;
  }
}

bool TcpFeed::poll(Time vnow, std::vector<SubmitRecord>& out) {
  if (!lines_.closed()) {
    accept_clients();
    for (std::size_t i = 0; i < clients_.size();) {
      Client& c = clients_[i];
      // EOF or a hard error is a hangup; its final line still counts.
      const bool hung_up =
          read_available(c.fd, c.partial) != ReadEnd::kWouldBlock;
      lines_.take_lines(c.partial, hung_up);
      if (hung_up) {
        ::close(c.fd);
        clients_.erase(clients_.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }
  return lines_.deliver(vnow, out);
}

// ----------------------------------------------------------- TcpSubmitClient

std::string format_submit_line(const SubmitRecord& r) {
  char buf[128];
  if (r.submit >= 0) {
    std::snprintf(buf, sizeof(buf),
                  "@%" PRId64 " %d %" PRId64 " %" PRId64 " %" PRId32,
                  static_cast<std::int64_t>(r.submit), r.nodes,
                  static_cast<std::int64_t>(r.runtime),
                  static_cast<std::int64_t>(r.estimate), r.user);
  } else {
    std::snprintf(buf, sizeof(buf), "%d %" PRId64 " %" PRId64 " %" PRId32,
                  r.nodes, static_cast<std::int64_t>(r.runtime),
                  static_cast<std::int64_t>(r.estimate), r.user);
  }
  return buf;
}

TcpSubmitClient::TcpSubmitClient(std::uint16_t port, std::size_t max_attempts)
    : port_(port), max_attempts_(max_attempts) {}

TcpSubmitClient::~TcpSubmitClient() { drop_connection(); }

void TcpSubmitClient::drop_connection() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool TcpSubmitClient::ensure_connected() {
  constexpr std::chrono::milliseconds kBackoffMin{10};
  constexpr std::chrono::milliseconds kBackoffMax{1000};
  if (fd_ >= 0) return true;
  std::size_t failures = 0;
  while (true) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd >= 0) {
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(port_);
      int rc;
      do {
        rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                       sizeof(addr));
      } while (rc != 0 && errno == EINTR);
      if (rc == 0) {
        fd_ = fd;
        backoff_ = std::chrono::milliseconds{0};
        if (ever_connected_) ++reconnects_;
        ever_connected_ = true;
        return true;
      }
      ::close(fd);
    }
    ++failures;
    if (max_attempts_ != 0 && failures >= max_attempts_) return false;
    backoff_ = backoff_.count() == 0 ? kBackoffMin
                                     : std::min(backoff_ * 2, kBackoffMax);
    std::this_thread::sleep_for(backoff_);
  }
}

bool TcpSubmitClient::send_line(const std::string& line) {
  const std::string wire = line + "\n";
  while (true) {
    if (!ensure_connected()) return false;
    std::size_t off = 0;
    bool broken = false;
    while (off < wire.size()) {
      const ssize_t n = ::send(fd_, wire.data() + off, wire.size() - off,
                               MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      broken = true;  // EPIPE/ECONNRESET/...: daemon went away mid-line
      break;
    }
    if (!broken) return true;
    // The daemon may have read a prefix of this line before dying; its
    // restart drops the torn line at the buffer level (no trailing \n from
    // a reset socket), so resending the whole line after reconnect is safe.
    drop_connection();
  }
}

bool TcpSubmitClient::send(const SubmitRecord& r) {
  return send_line(format_submit_line(r));
}

bool TcpSubmitClient::send_end() { return send_line("end"); }

}  // namespace jsched::serve
