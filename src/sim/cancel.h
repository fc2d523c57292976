// Cooperative cancellation for long-running simulations.
//
// A simulation is a tight single-threaded event loop; the only safe way to
// stop one early is to ask it to stop itself. A CancelToken carries an
// external cancellation flag and/or a wall-clock deadline; the simulator
// polls it once per event-loop iteration (only when one is installed, so
// the default path pays a single null check) and aborts by throwing
// CancelledError. The eval harness maps that exception onto the timeout /
// cancelled entries of its RunError taxonomy.
//
// Tokens chain: a per-run token constructed with a parent observes the
// parent's cancellation too, so one sweep-wide token can stop every run of
// a grid while each run keeps its own deadline. `cancel()` is safe to call
// from any thread; deadlines must be set before the token is shared with
// the simulating thread (they are plain fields, synchronized by whatever
// hand-off publishes the token — e.g. the start of the thread that
// util::parallel_for_each runs it on).
#pragma once

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>

#include "util/clock.h"

namespace jsched::sim {

/// Thrown by the simulator (from CancelToken::check) when a run is
/// cancelled or exceeds its deadline. Derives from std::runtime_error, not
/// std::logic_error: an expired run is an operational event, not a bug.
class CancelledError : public std::runtime_error {
 public:
  enum class Reason {
    kCancelled,  // CancelToken::cancel() was called
    kDeadline,   // the wall-clock deadline passed
  };

  CancelledError(Reason reason, const std::string& what)
      : std::runtime_error(what), reason_(reason) {}

  Reason reason() const noexcept { return reason_; }

 private:
  Reason reason_;
};

class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  CancelToken() = default;
  /// A child token: cancelled/expired when this token *or* `parent` is.
  /// `parent` (may be null) must outlive this token.
  explicit CancelToken(const CancelToken* parent) : parent_(parent) {}

  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Request cancellation. Callable from any thread, any number of times.
  void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }

  /// Install an absolute wall-clock deadline. Not thread-safe: call before
  /// handing the token to the simulating thread.
  void set_deadline(Clock::time_point deadline) noexcept {
    deadline_ = deadline;
    has_deadline_ = true;
  }

  /// Deadline `budget` from now (as observed by this token's clock).
  void set_deadline_after(Clock::duration budget) {
    set_deadline(now() + budget);
  }

  /// Route deadline checks through an injected time source. Null restores
  /// the default (the real steady clock). Tests install a util::ManualClock
  /// and *advance* it past the deadline instead of sleeping — the expiry
  /// tests stop depending on the CI machine's scheduler. Not thread-safe:
  /// set before sharing the token, like set_deadline.
  void set_clock(const util::Clock* clock) noexcept { clock_ = clock; }

  bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_relaxed) ||
           (parent_ != nullptr && parent_->cancelled());
  }

  bool expired() const noexcept {
    return (has_deadline_ && now() >= deadline_) ||
           (parent_ != nullptr && parent_->expired());
  }

  /// Throw CancelledError if cancelled or past the deadline. Explicit
  /// cancellation wins the tie so an externally stopped sweep reports
  /// kCancelled, not a coincidental kDeadline.
  void check() const {
    if (cancelled()) {
      throw CancelledError(CancelledError::Reason::kCancelled,
                           "simulation cancelled");
    }
    if (expired()) {
      throw CancelledError(CancelledError::Reason::kDeadline,
                           "simulation deadline expired");
    }
  }

 private:
  Clock::time_point now() const noexcept {
    return clock_ != nullptr ? clock_->now() : Clock::now();
  }

  const CancelToken* parent_ = nullptr;
  const util::Clock* clock_ = nullptr;
  std::atomic<bool> cancelled_{false};
  bool has_deadline_ = false;
  Clock::time_point deadline_{};
};

}  // namespace jsched::sim
