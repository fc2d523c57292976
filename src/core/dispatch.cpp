#include "core/dispatch.h"

#include <cassert>

namespace jsched::core {

void HeadOnlyDispatch::select(Time, int free_nodes,
                              const std::vector<JobId>& order,
                              const std::vector<RunningJob>&,
                              std::vector<JobId>& starts) {
  starts.clear();
  for (JobId id : order) {
    const int need = store_->get(id).nodes;
    if (need > free_nodes) break;  // head blocks the rest of the list
    free_nodes -= need;
    starts.push_back(id);
  }
}

void FirstFitDispatch::reset(const sim::Machine&, const JobStore& store) {
  store_ = &store;
  queue_.clear();
  stats_ = {};
}

void FirstFitDispatch::select(Time, int free_nodes,
                              [[maybe_unused]] const std::vector<JobId>& order,
                              const std::vector<RunningJob>&,
                              std::vector<JobId>& starts) {
  starts.clear();
  queue_.begin_round();
  assert(queue_.lists(order));
  ++stats_.selects;
  std::uint64_t& examined = stats_.slots_examined;
  for (std::size_t p = queue_.find(0, free_nodes, QueueIndex::kAnyEstimate, 0,
                                   examined);
       p != QueueIndex::npos;
       p = queue_.find(p + 1, free_nodes, QueueIndex::kAnyEstimate, 0,
                       examined)) {
    free_nodes -= queue_.slot(p).nodes;
    starts.push_back(queue_.take(p));
    if (free_nodes == 0) break;
  }
}

}  // namespace jsched::core
