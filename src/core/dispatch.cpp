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

void FirstFitDispatch::reset(const sim::Machine& machine,
                             const JobStore& store) {
  store_ = &store;
  queue_.clear();
  stats_ = {};
  // Every pick takes a node: no select grows the buffer after this.
  picked_.reserve(static_cast<std::size_t>(machine.nodes));
}

int FirstFitDispatch::search(std::size_t from, int free_nodes,
                             std::uint64_t& examined,
                             std::vector<std::size_t>& picked) const {
  for (std::size_t p = queue_.find(from, free_nodes, QueueIndex::kAnyEstimate,
                                   0, examined);
       p != QueueIndex::npos;
       p = queue_.find(p + 1, free_nodes, QueueIndex::kAnyEstimate, 0,
                       examined)) {
    free_nodes -= queue_.slot(p).nodes;
    picked.push_back(p);
    if (free_nodes == 0) break;
  }
  return free_nodes;
}

void FirstFitDispatch::select(Time, int free_nodes,
                              [[maybe_unused]] const std::vector<JobId>& order,
                              const std::vector<RunningJob>&,
                              std::vector<JobId>& starts) {
  starts.clear();
  queue_.begin_round();
  assert(queue_.lists(order));
  ++stats_.selects;
  // Every job behind the frontier needs more nodes than are free.
  const std::size_t from = queue_.frontier(free_nodes);
  if (from != 0) ++stats_.settled;
  picked_.clear();
  const int left = search(from, free_nodes, stats_.slots_examined, picked_);
#ifndef NDEBUG
  if (from != 0) {  // the search from the front picks the same jobs
    std::uint64_t examined = 0;
    std::vector<std::size_t> full;
    search(0, free_nodes, examined, full);
    assert(full == picked_);
  }
#endif
  for (std::size_t p : picked_) starts.push_back(queue_.take(p));
  queue_.settle(left);
}

}  // namespace jsched::core
