// Injectable monotonic time source.
//
// Everything in this repo that *waits* or *measures wall time* — the serve
// daemon's pacing loop, the sweep coordinator's poll sleeps — goes through
// this interface instead of calling std::chrono directly. The production
// implementation (real_clock()) is std::chrono::steady_clock plus a real
// sleep; tests substitute a ManualClock whose time only moves when the test
// (or a sleep_until call) advances it, which makes every timing-dependent
// test deterministic: a paced serve test advances the clock past an event's
// due time instead of actually waiting and hoping the scheduler of the CI
// machine cooperates.
#pragma once

#include <atomic>
#include <chrono>

namespace jsched::util {

class Clock {
 public:
  // steady_clock's representation so real and fake time_points interconvert
  // with the rest of the codebase.
  using time_point = std::chrono::steady_clock::time_point;
  using duration = std::chrono::nanoseconds;

  virtual ~Clock() = default;

  /// Current monotonic time.
  virtual time_point now() const noexcept = 0;

  /// Block until now() >= t (no-op when already past). A ManualClock
  /// "sleeps" by jumping its time forward, so waiters never actually block.
  virtual void sleep_until(time_point t) = 0;

  void sleep_for(duration d) { sleep_until(now() + d); }
};

/// The process-wide real clock: steady_clock::now + this_thread::sleep.
Clock& real_clock() noexcept;

/// Deterministic clock for tests: time is a value the test controls.
/// sleep_until advances time to the target immediately (simulated waiting),
/// so code paths that pace themselves run at full speed under test while
/// observing exactly the time sequence the test scripted. Reads and
/// advances are atomic — safe to share with the thread under test.
class ManualClock final : public Clock {
 public:
  explicit ManualClock(time_point start = time_point{}) noexcept
      : ns_(start.time_since_epoch().count()) {}

  time_point now() const noexcept override {
    return time_point(duration(ns_.load(std::memory_order_relaxed)));
  }

  void sleep_until(time_point t) override {
    // Monotonic: never move backwards even if another thread advanced past.
    auto target = t.time_since_epoch().count();
    auto cur = ns_.load(std::memory_order_relaxed);
    while (cur < target &&
           !ns_.compare_exchange_weak(cur, target, std::memory_order_relaxed)) {
    }
  }

  void advance(duration d) noexcept {
    ns_.fetch_add(d.count(), std::memory_order_relaxed);
  }

 private:
  std::atomic<duration::rep> ns_;
};

}  // namespace jsched::util
