#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace jsched::util {

namespace {

/// Shared error channel of one parallel_for_each call: the first exception
/// (by completion order) plus a count of later ones, so no failure is ever
/// silently dropped.
struct ErrorChannel {
  std::mutex mu;
  std::exception_ptr first;
  std::size_t suppressed = 0;
  std::atomic<bool> failed{false};

  void capture(std::exception_ptr e) {
    std::lock_guard<std::mutex> lock(mu);
    if (!first) {
      first = std::move(e);
    } else {
      ++suppressed;
    }
    failed.store(true, std::memory_order_relaxed);
  }

  /// Rethrow the first exception. With suppressed secondary failures the
  /// original type cannot carry the count, so the rethrown error becomes a
  /// std::runtime_error wrapping the first message plus the count.
  [[noreturn]] void rethrow() {
    if (suppressed == 0) std::rethrow_exception(first);
    std::string what;
    try {
      std::rethrow_exception(first);
    } catch (const std::exception& e) {
      what = e.what();
    } catch (...) {
      what = "non-standard exception";
    }
    throw std::runtime_error(what + " (+" + std::to_string(suppressed) +
                             " further task failure" +
                             (suppressed == 1 ? "" : "s") + " suppressed)");
  }
};

}  // namespace

void parallel_for_each(std::size_t n, std::size_t threads,
                       const std::function<void(std::size_t)>& fn,
                       const ParallelOptions& options) {
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Every thread drains indices from one shared counter, so a long task on
  // one thread never blocks the remaining indices.
  std::atomic<std::size_t> next{0};
  ErrorChannel errors;
  const auto drain = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      if (options.stop_on_error &&
          errors.failed.load(std::memory_order_relaxed)) {
        return;  // start nothing new, abandon nothing in flight
      }
      try {
        fn(i);
      } catch (...) {
        errors.capture(std::current_exception());
      }
    }
  };
  {
    // Leaving this scope joins every thread started so far, also when a
    // later one fails to start and emplace_back throws.
    const std::size_t count = std::min(threads, n);
    std::vector<std::jthread> workers;
    workers.reserve(count);
    for (std::size_t t = 0; t < count; ++t) workers.emplace_back(drain);
  }
  if (errors.first) errors.rethrow();
}

std::size_t hardware_threads() {
  return std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
}

}  // namespace jsched::util
