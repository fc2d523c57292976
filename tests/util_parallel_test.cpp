#include "util/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace jsched::util {
namespace {

TEST(ParallelForEach, HardwareThreadsAtLeastOne) {
  EXPECT_GE(hardware_threads(), 1u);
}

TEST(ParallelForEach, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for_each(hits.size(), 4, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForEach, WritesDisjointSlots) {
  // The eval harness's usage pattern: task i writes only out[i].
  std::vector<std::size_t> out(257, 0);
  parallel_for_each(out.size(), 3, [&](std::size_t i) { out[i] = i * i; });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelForEach, HandlesZeroAndFewerTasksThanThreads) {
  parallel_for_each(0, 8, [](std::size_t) { FAIL() << "no indices to run"; });
  std::atomic<int> counter{0};
  parallel_for_each(3, 8, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 3);
}

TEST(ParallelForEach, RethrowsTaskException) {
  std::atomic<int> completed{0};
  EXPECT_THROW(parallel_for_each(50, 4,
                                 [&](std::size_t i) {
                                   if (i == 17) {
                                     throw std::runtime_error("boom");
                                   }
                                   ++completed;
                                 }),
               std::runtime_error);
  // Every non-throwing index still ran: one failure doesn't strand work.
  EXPECT_EQ(completed.load(), 49);
}

TEST(ParallelForEach, CountsSuppressedExceptions) {
  // Five tasks throw; one exception is rethrown and the other four must be
  // accounted for in its message, never silently dropped.
  try {
    parallel_for_each(50, 4, [&](std::size_t i) {
      if (i % 10 == 0) throw std::runtime_error("task failed");
    });
    FAIL() << "expected parallel_for_each to rethrow";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("task failed"), std::string::npos) << what;
    EXPECT_NE(what.find("+4 further task failure"), std::string::npos) << what;
    EXPECT_NE(what.find("suppressed"), std::string::npos) << what;
  }
}

TEST(ParallelForEach, SingleFailureKeepsOriginalMessageUnwrapped) {
  try {
    parallel_for_each(50, 4, [&](std::size_t i) {
      if (i == 17) throw std::runtime_error("only failure");
    });
    FAIL() << "expected parallel_for_each to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "only failure");
  }
}

TEST(ParallelForEach, StopOnErrorSkipsUnstartedTasks) {
  // Two threads, and indices 0 and 1 each wait until the other is in
  // flight before throwing — so both threads hold one index at once (the
  // inline path could never get there) and each fails. A thread records
  // its own failure before it pulls its next index, so with stop_on_error
  // neither starts anything after its failure: exactly 2 of 100 indices
  // run, and the second failure is counted as suppressed.
  std::atomic<int> started{0};
  std::atomic<int> in_flight{0};
  const auto rendezvous = [&in_flight] {
    in_flight.fetch_add(1);
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (in_flight.load() < 2 && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
  };
  ParallelOptions options;
  options.stop_on_error = true;
  try {
    parallel_for_each(
        100, 2,
        [&](std::size_t i) {
          started.fetch_add(1, std::memory_order_relaxed);
          if (i < 2) {
            rendezvous();
            throw std::runtime_error("stop now");
          }
        },
        options);
    FAIL() << "expected parallel_for_each to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("+1 further task failure"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(in_flight.load(), 2);
  EXPECT_EQ(started.load(), 2);
}

TEST(ParallelForEach, SerialWhenThreadsIsOne) {
  // threads <= 1 (0 included) must execute inline, in index order.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    parallel_for_each(5, threads, [&](std::size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
    });
    const std::vector<std::size_t> expected = {0, 1, 2, 3, 4};
    EXPECT_EQ(order, expected);
  }
}

TEST(ParallelForEach, ParallelMatchesSerialResult) {
  std::vector<double> serial(500), parallel(500);
  parallel_for_each(serial.size(), 1, [&](std::size_t i) {
    serial[i] = 0.5 * static_cast<double>(i);
  });
  parallel_for_each(parallel.size(), 4, [&](std::size_t i) {
    parallel[i] = 0.5 * static_cast<double>(i);
  });
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace jsched::util
