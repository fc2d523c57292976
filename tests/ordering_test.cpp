#include "core/ordering.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/psrs.h"
#include "core/smart.h"
#include "test_support.h"
#include "util/rng.h"

namespace jsched::core {
namespace {

using test::make_job;

sim::Machine machine(int nodes = 16) {
  sim::Machine m;
  m.nodes = nodes;
  return m;
}

JobStore store_with(std::initializer_list<Job> jobs) {
  JobStore s;
  JobId id = 0;
  for (Job j : jobs) {
    j.id = id++;
    s.put(j);
  }
  return s;
}

TEST(FcfsOrder, AppendsInSubmissionOrder) {
  JobStore store = store_with({make_job(0, 1, 10), make_job(5, 1, 10)});
  FcfsOrder order;
  order.reset(machine(), store);
  order.on_submit(0, 0);
  order.on_submit(1, 5);
  ASSERT_EQ(order.order().size(), 2u);
  EXPECT_EQ(order.order()[0], 0u);
  EXPECT_EQ(order.order()[1], 1u);
  EXPECT_EQ(order.version(), 0u);  // never reorders
}

TEST(FcfsOrder, RemoveFromMiddle) {
  JobStore store =
      store_with({make_job(0, 1, 10), make_job(1, 1, 10), make_job(2, 1, 10)});
  FcfsOrder order;
  order.reset(machine(), store);
  for (JobId i = 0; i < 3; ++i) order.on_submit(i, i);
  order.on_remove(1, 3);
  ASSERT_EQ(order.order().size(), 2u);
  EXPECT_EQ(order.order()[0], 0u);
  EXPECT_EQ(order.order()[1], 2u);
}

TEST(FcfsOrder, RemoveUnknownThrows) {
  JobStore store = store_with({make_job(0, 1, 10)});
  FcfsOrder order;
  order.reset(machine(), store);
  EXPECT_THROW(order.on_remove(0, 0), std::logic_error);
}

TEST(FcfsOrder, ResetClears) {
  JobStore store = store_with({make_job(0, 1, 10)});
  FcfsOrder order;
  order.reset(machine(), store);
  order.on_submit(0, 0);
  order.reset(machine(), store);
  EXPECT_TRUE(order.order().empty());
}

// A minimal ReplanningOrder that reverses the queue, to test the replan
// trigger machinery in isolation from SMART/PSRS logic.
class ReversingOrder final : public ReplanningOrder {
 public:
  using ReplanningOrder::ReplanningOrder;
  std::string name() const override { return "REV"; }

 protected:
  std::vector<JobId> plan(const std::vector<JobId>& jobs) const override {
    return {jobs.rbegin(), jobs.rend()};
  }
};

TEST(ReplanningOrder, FirstSubmitTriggersPlan) {
  JobStore store = store_with({make_job(0, 1, 10)});
  ReversingOrder order;
  order.reset(machine(), store);
  order.on_submit(0, 0);
  EXPECT_EQ(order.replans(), 1u);
}

TEST(ReplanningOrder, ReplansWhenPlannedRatioDropsBelowThreshold) {
  JobStore store = store_with({
      make_job(0, 1, 10), make_job(1, 1, 10), make_job(2, 1, 10),
      make_job(3, 1, 10), make_job(4, 1, 10), make_job(5, 1, 10),
  });
  ReversingOrder order(2.0 / 3.0);
  order.reset(machine(), store);
  order.on_submit(0, 0);  // 0/1 < 2/3 -> replan (planned: 1)
  EXPECT_EQ(order.replans(), 1u);
  order.on_submit(1, 1);  // 1/2 < 2/3 -> replan (planned: 2)
  EXPECT_EQ(order.replans(), 2u);
  order.on_submit(2, 2);  // 2/3 = 2/3 -> no replan
  EXPECT_EQ(order.replans(), 2u);
  order.on_submit(3, 3);  // 2/4 < 2/3 -> replan (planned: 4)
  EXPECT_EQ(order.replans(), 3u);
  order.on_submit(4, 4);  // 4/5 >= 2/3 -> no replan
  order.on_submit(5, 5);  // 4/6 = 2/3 -> no replan
  EXPECT_EQ(order.replans(), 3u);
}

TEST(ReplanningOrder, UnplannedJobsQueueFcfsBehindPlan) {
  JobStore store = store_with({
      make_job(0, 1, 10), make_job(1, 1, 10), make_job(2, 1, 10),
  });
  ReversingOrder order(2.0 / 3.0);
  order.reset(machine(), store);
  order.on_submit(0, 0);
  order.on_submit(1, 1);  // replan: plan([0,1]) = [1,0]
  order.on_submit(2, 2);  // 2/3 ratio -> appended unplanned
  ASSERT_EQ(order.order().size(), 3u);
  EXPECT_EQ(order.order()[0], 1u);
  EXPECT_EQ(order.order()[1], 0u);
  EXPECT_EQ(order.order()[2], 2u);
}

TEST(ReplanningOrder, VersionBumpsOnReplanOnly) {
  JobStore store = store_with({
      make_job(0, 1, 10), make_job(1, 1, 10), make_job(2, 1, 10),
  });
  ReversingOrder order(2.0 / 3.0);
  order.reset(machine(), store);
  const auto v0 = order.version();
  order.on_submit(0, 0);
  const auto v1 = order.version();
  EXPECT_NE(v0, v1);  // replan happened
  order.on_submit(1, 1);
  const auto v2 = order.version();
  EXPECT_NE(v1, v2);
  order.on_submit(2, 2);  // no replan
  EXPECT_EQ(order.version(), v2);
  order.on_remove(1, 3);  // removals never bump
  EXPECT_EQ(order.version(), v2);
}

TEST(ReplanningOrder, RemoveMaintainsPlannedPrefixCount) {
  JobStore store = store_with({
      make_job(0, 1, 10), make_job(1, 1, 10), make_job(2, 1, 10),
      make_job(3, 1, 10),
  });
  ReversingOrder order(2.0 / 3.0);
  order.reset(machine(), store);
  order.on_submit(0, 0);
  order.on_submit(1, 1);  // plan = [1,0], planned = 2
  order.on_submit(2, 2);  // order = [1,0,2], planned 2 of 3
  order.on_remove(1, 3);  // planned job removed -> planned 1 of 2
  order.on_submit(3, 4);  // 1/3 < 2/3 -> replan over [0,2,3]
  EXPECT_EQ(order.replans(), 3u);
  ASSERT_EQ(order.order().size(), 3u);
  EXPECT_EQ(order.order()[0], 3u);  // reversed
}

TEST(ReplanningOrder, ThresholdValidation) {
  EXPECT_THROW(ReversingOrder(-0.1), std::invalid_argument);
  EXPECT_THROW(ReversingOrder(0.0), std::invalid_argument);
  EXPECT_THROW(ReversingOrder(1.5), std::invalid_argument);
  EXPECT_NO_THROW(ReversingOrder(1.0));
}

TEST(ReplanningOrder, ThresholdOneReplansEveryArrival) {
  JobStore store = store_with({
      make_job(0, 1, 10), make_job(1, 1, 10), make_job(2, 1, 10),
  });
  ReversingOrder order(1.0);
  order.reset(machine(), store);
  for (JobId i = 0; i < 3; ++i) order.on_submit(i, i);
  EXPECT_EQ(order.replans(), 3u);
}

TEST(PriorityFcfsOrder, HigherClassJumpsAhead) {
  JobStore store;
  Job a = make_job(0, 1, 10);
  a.id = 0;
  a.priority_class = 0;
  Job b = make_job(1, 1, 10);
  b.id = 1;
  b.priority_class = 2;
  Job c = make_job(2, 1, 10);
  c.id = 2;
  c.priority_class = 1;
  store.put(a);
  store.put(b);
  store.put(c);

  PriorityFcfsOrder order;
  order.reset(machine(), store);
  order.on_submit(0, 0);
  order.on_submit(1, 1);
  order.on_submit(2, 2);
  ASSERT_EQ(order.order().size(), 3u);
  EXPECT_EQ(order.order()[0], 1u);  // class 2 first
  EXPECT_EQ(order.order()[1], 2u);  // class 1
  EXPECT_EQ(order.order()[2], 0u);  // class 0
}

TEST(PriorityFcfsOrder, FcfsWithinClass) {
  JobStore store;
  for (JobId i = 0; i < 3; ++i) {
    Job j = make_job(i, 1, 10);
    j.id = i;
    j.priority_class = 1;
    store.put(j);
  }
  PriorityFcfsOrder order;
  order.reset(machine(), store);
  for (JobId i = 0; i < 3; ++i) order.on_submit(i, i);
  EXPECT_EQ(order.order()[0], 0u);
  EXPECT_EQ(order.order()[1], 1u);
  EXPECT_EQ(order.order()[2], 2u);
}

TEST(PriorityFcfsOrder, VersionBumpsOnMidQueueInsertOnly) {
  JobStore store;
  Job a = make_job(0, 1, 10);
  a.id = 0;
  a.priority_class = 1;
  Job b = make_job(1, 1, 10);
  b.id = 1;
  b.priority_class = 1;
  Job c = make_job(2, 1, 10);
  c.id = 2;
  c.priority_class = 9;
  store.put(a);
  store.put(b);
  store.put(c);

  PriorityFcfsOrder order;
  order.reset(machine(), store);
  const auto v0 = order.version();
  order.on_submit(0, 0);  // append
  order.on_submit(1, 1);  // append (same class)
  EXPECT_EQ(order.version(), v0);
  order.on_submit(2, 2);  // jumps to the front
  EXPECT_NE(order.version(), v0);
}

TEST(PriorityFcfsOrder, RemoveUnknownThrows) {
  JobStore store;
  PriorityFcfsOrder order;
  order.reset(machine(), store);
  EXPECT_THROW(order.on_remove(5, 0), std::logic_error);
}

TEST(JobStoreTest, PutAndGet) {
  JobStore s;
  Job j = make_job(5, 3, 10);
  j.id = 7;
  s.put(j);
  EXPECT_EQ(s.get(7).nodes, 3);
  EXPECT_GE(s.capacity(), 8u);
}

TEST(WeightKindTest, SchedulingWeights) {
  Job j = make_job(0, 4, 0, 100);
  j.runtime = 1;  // scrubbed/absent; estimated_area uses the estimate
  EXPECT_DOUBLE_EQ(scheduling_weight(j, WeightKind::kUnit), 1.0);
  EXPECT_DOUBLE_EQ(scheduling_weight(j, WeightKind::kEstimatedArea), 400.0);
}

TEST(IndexedRemoval, MatchesLinearScanReference) {
  // Every policy finds a started job by scanning its queue. Drive all four
  // with a random submit/remove mix (removals from head, middle and tail
  // alike) and check, after every operation, the contract documented on
  // OrderingPolicy that the dispatchers' queue index relies on: a submit
  // that leaves version() unchanged appends at the tail, and a removal
  // drops exactly the removed job. FCFS must also match a plain vector
  // doing the scan-and-erase.
  const auto policies = [] {
    std::vector<std::unique_ptr<OrderingPolicy>> v;
    v.push_back(std::make_unique<FcfsOrder>());
    v.push_back(std::make_unique<PriorityFcfsOrder>());
    v.push_back(std::make_unique<SmartOrder>(SmartParams{}));
    v.push_back(std::make_unique<PsrsOrder>(PsrsParams{}));
    return v;
  }();
  for (const auto& order : policies) {
    SCOPED_TRACE(order->name());
    JobStore store;
    order->reset(machine(), store);
    std::vector<JobId> reference;  // order() expected after each operation
    util::Rng rng(123);
    JobId next = 0;
    std::uint64_t reorders = 0;
    for (int op = 0; op < 4000; ++op) {
      const std::uint64_t version = order->version();
      if (reference.empty() || rng.bernoulli(0.55)) {
        Job j = make_job(op, static_cast<int>(rng.uniform_int(1, 16)),
                         rng.uniform_int(1, 5000));
        j.id = next++;
        j.priority_class = static_cast<std::int32_t>(rng.uniform_int(0, 2));
        store.put(j);
        order->on_submit(j.id, op);
        reference.push_back(j.id);
      } else {
        const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(reference.size()) - 1));
        const JobId victim = reference[pick];
        reference.erase(reference.begin() + static_cast<std::ptrdiff_t>(pick));
        order->on_remove(victim, op);
        // Removing again must throw: the job left the queue.
        if (op % 97 == 0) {
          EXPECT_THROW(order->on_remove(victim, op), std::logic_error);
        }
      }
      if (order->version() != version) {
        // A reorder may permute the queue, never change its members.
        ++reorders;
        std::vector<JobId> got = order->order();
        std::sort(got.begin(), got.end());
        std::sort(reference.begin(), reference.end());
        ASSERT_EQ(got, reference) << "op " << op;
        reference = order->order();
      }
      ASSERT_EQ(order->order(), reference) << "op " << op;
    }
    if (order->name() == "FCFS") {
      EXPECT_EQ(reorders, 0u);
    } else {
      EXPECT_GT(reorders, 0u) << "the mix exercises mid-queue inserts/replans";
    }
  }
}

TEST(IndexedRemoval, PriorityInsertKeepsIndexConsistent) {
  // Mid-queue priority insertions shift the suffix; subsequent removals
  // must still hit the right positions.
  JobStore store;
  PriorityFcfsOrder order;
  order.reset(machine(), store);
  const auto submit = [&](JobId id, std::int32_t cls) {
    Job j = make_job(0, 1, 10);
    j.id = id;
    j.priority_class = cls;
    store.put(j);
    order.on_submit(id, 0);
  };
  submit(0, 0);
  submit(1, 0);
  submit(2, 5);  // jumps the queue
  submit(3, 2);  // lands between 2 and 0
  ASSERT_EQ(order.order(), (std::vector<JobId>{2, 3, 0, 1}));
  order.on_remove(3, 1);  // mid-queue removal after mid-queue insert
  order.on_remove(1, 1);  // tail
  ASSERT_EQ(order.order(), (std::vector<JobId>{2, 0}));
  order.on_remove(2, 1);  // head
  order.on_remove(0, 1);
  EXPECT_TRUE(order.order().empty());
  EXPECT_THROW(order.on_remove(0, 1), std::logic_error);
}

}  // namespace
}  // namespace jsched::core
