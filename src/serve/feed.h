// Submission feeds: where the serve daemon's jobs come from.
//
// The daemon is transport-agnostic; a Feed hides whether submissions come
// from a replayed trace, a pipe/tailed file, or a localhost TCP socket.
// All transports speak one line protocol:
//
//   @<submit> <nodes> <runtime> <estimate> [user]   timed record (replay)
//   <nodes> <runtime> <estimate> [user]             live record (submit = now)
//   end                                             close the feed
//   # ...                                           comment (ignored)
//
// `runtime` rides along because the daemon *simulates* execution — it is
// the simulator side of the paper's information boundary; schedulers still
// only ever see the Submission slice (nodes + estimate).
//
// The contract that makes replay serving bit-identical to the offline
// simulator: `next_submit()` exposes the earliest *known future* arrival
// so the decision loop can refuse to process any event at t >=
// next_submit() before admitting it — equal-submit arrival batches then
// reach the scheduler together, exactly as sim::simulate delivers them.
// Live transports cannot know the future and return kTimeInfinity: no
// gating, submissions are stamped as they arrive.
// Record fields are bounded by the job model (invalid_job_field, job.h).
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "util/time.h"
#include "workload/job.h"
#include "workload/job_source.h"

namespace jsched::serve {

/// One submission as it crosses the wire — a Job minus the id (the daemon
/// assigns dense ids at admission, after overload shedding).
struct SubmitRecord {
  Time submit = -1;  // virtual seconds; -1 = live ("now" at admission)
  int nodes = 1;
  Duration runtime = 1;
  Duration estimate = 1;
  std::int32_t user = 0;
};

enum class ParseResult {
  kRecord,  // a SubmitRecord was produced
  kSkip,    // blank line or comment
  kEnd,     // the "end" sentinel
  kError,   // malformed (error message in *error)
};

/// Parse one protocol line (no trailing newline). On kError, `*error`
/// (when non-null) receives a description ("bad <field> field: ...").
ParseResult parse_submit_line(const std::string& line, SubmitRecord& out,
                              std::string* error = nullptr);

class Feed {
 public:
  virtual ~Feed() = default;
  Feed(const Feed&) = delete;
  Feed& operator=(const Feed&) = delete;

  /// Append every submission available at virtual time `vnow` to `out`
  /// (kTimeInfinity = deliver everything you have — free-run). Returns
  /// false once the feed has ended AND every record was delivered; a false
  /// return is terminal.
  virtual bool poll(Time vnow, std::vector<SubmitRecord>& out) = 0;

  /// Earliest known future submission time, or kTimeInfinity when unknown
  /// (live transports) or exhausted. See file comment: this is the replay
  /// gate that keeps serving bit-identical to the offline simulator.
  virtual Time next_submit() const = 0;

 protected:
  Feed() = default;
};

/// Replay a workload::JobSource (trace file, synthetic generator) as a
/// feed: every job becomes a timed record at its trace submit time. Does
/// not own the source; one-job lookahead backs next_submit().
class JobSourceFeed final : public Feed {
 public:
  explicit JobSourceFeed(workload::JobSource& source);

  bool poll(Time vnow, std::vector<SubmitRecord>& out) override;
  Time next_submit() const override;

 private:
  void pull();

  workload::JobSource* source_;
  Job pending_{};
  bool has_pending_ = false;
};

namespace detail {

/// The line protocol over a byte stream, shared by FdLineFeed and TcpFeed:
/// parses and queues complete lines, counts and logs malformed ones to
/// stderr, and drops every line after `end`. The transport hands it bytes
/// and closes it when its input ends.
class LineReader {
 public:
  /// Parse and erase every complete line of `buffer`; with `at_end` (its
  /// input is over) a final line without a newline too.
  void take_lines(std::string& buffer, bool at_end);

  /// No input follows: deliver reports the end once the queue drains.
  void close() noexcept { closed_ = true; }
  bool closed() const noexcept { return closed_; }

  /// Feed::poll: append the queued records due at `vnow` (live ones always
  /// are); false once closed and drained.
  bool deliver(Time vnow, std::vector<SubmitRecord>& out);

  /// A byte stream cannot reveal the future: the earliest queued timed
  /// record, else infinity.
  Time next_submit() const;

  /// Malformed lines seen so far (each also logged to stderr).
  std::size_t parse_errors() const noexcept { return parse_errors_; }

 private:
  std::deque<SubmitRecord> parsed_;
  std::size_t parse_errors_ = 0;
  bool closed_ = false;
};

}  // namespace detail

/// Line-protocol feed over a file descriptor (stdin, a pipe, or a tailed
/// file). Reads are non-blocking; partial lines are buffered across polls.
/// In tail mode EOF does not end the feed (more data may be appended —
/// `end` is the only terminator); otherwise EOF ends it. A hard read error
/// ends it in either mode. Does not own the descriptor unless `close_fd`.
class FdLineFeed final : public Feed {
 public:
  FdLineFeed(int fd, bool tail, bool close_fd);
  ~FdLineFeed() override;

  bool poll(Time vnow, std::vector<SubmitRecord>& out) override;
  Time next_submit() const override { return lines_.next_submit(); }

  /// Malformed lines seen so far (each also logged to stderr).
  std::size_t parse_errors() const noexcept { return lines_.parse_errors(); }

 private:
  int fd_;
  bool tail_;
  bool close_fd_;
  std::string partial_;
  detail::LineReader lines_;
};

/// Localhost TCP feed: listens on 127.0.0.1:`port` (0 = ephemeral; see
/// port()) and speaks the line protocol with any number of concurrent
/// clients. `end` from any client ends the whole feed once every buffered
/// record is delivered — the shared-cluster model, where one operator can
/// close submissions. A client's hangup keeps its final line even without
/// a newline. Non-blocking throughout; constructor throws
/// std::runtime_error when the socket cannot be bound.
///
/// Resilience: transient accept() failures — fd exhaustion (EMFILE,
/// ENFILE), aborted handshakes (ECONNABORTED), kernel buffer pressure
/// (ENOBUFS/ENOMEM) — never kill the listener. Aborted connections are
/// skipped on the spot; resource exhaustion arms a capped exponential
/// backoff (10ms doubling to 2s) before the next accept attempt, while
/// established clients keep being read the whole time. Every such event
/// is counted (transient_accept_errors) and logged once per escalation.
class TcpFeed final : public Feed {
 public:
  explicit TcpFeed(std::uint16_t port);
  ~TcpFeed() override;

  bool poll(Time vnow, std::vector<SubmitRecord>& out) override;
  Time next_submit() const override { return lines_.next_submit(); }

  /// The bound port (useful with port 0).
  std::uint16_t port() const noexcept { return port_; }
  std::size_t parse_errors() const noexcept { return lines_.parse_errors(); }
  /// Transient accept() failures survived so far.
  std::size_t transient_accept_errors() const noexcept {
    return transient_accept_errors_;
  }

 private:
  struct Client {
    int fd;
    std::string partial;
  };

  void accept_clients();

  int listen_fd_;
  std::uint16_t port_;
  std::vector<Client> clients_;
  detail::LineReader lines_;
  std::size_t transient_accept_errors_ = 0;
  std::chrono::milliseconds accept_backoff_{0};
  std::chrono::steady_clock::time_point accept_retry_at_{};
};

/// Serialize a record back into one protocol line (no trailing newline):
/// the exact inverse of parse_submit_line for valid records.
std::string format_submit_line(const SubmitRecord& r);

/// Line-protocol submit client with reconnect-and-retry: the producer
/// half of feed resilience. Connects lazily to 127.0.0.1:`port` and
/// delivers lines over a blocking socket; a refused connect or a dropped
/// connection (daemon restarting, socket reset) is retried with a capped
/// exponential backoff (10ms doubling to 1s) until the line is delivered
/// or `max_attempts` connects have failed in a row (0 = keep trying
/// forever). schedd's loadgen --connect mode drives a remote daemon
/// through this.
class TcpSubmitClient {
 public:
  explicit TcpSubmitClient(std::uint16_t port, std::size_t max_attempts = 0);
  ~TcpSubmitClient();

  TcpSubmitClient(const TcpSubmitClient&) = delete;
  TcpSubmitClient& operator=(const TcpSubmitClient&) = delete;

  /// Deliver one record / one raw protocol line / the `end` sentinel.
  /// Returns false when the retry budget ran out (the line was not sent).
  bool send(const SubmitRecord& r);
  bool send_line(const std::string& line);
  bool send_end();

  /// Successful re-connections after the first (a health signal: how
  /// often the daemon side went away mid-stream).
  std::size_t reconnects() const noexcept { return reconnects_; }

 private:
  bool ensure_connected();
  void drop_connection();

  std::uint16_t port_;
  std::size_t max_attempts_;
  int fd_ = -1;
  bool ever_connected_ = false;
  std::size_t reconnects_ = 0;
  std::chrono::milliseconds backoff_{0};
};

}  // namespace jsched::serve
