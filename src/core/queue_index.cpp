#include "core/queue_index.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace jsched::core {

int QueueIndex::band_of(int nodes) {
  // Band b holds the jobs of at most 2^b nodes: 1 -> 0, 2 -> 1, 3..4 -> 2.
  const int b =
      static_cast<int>(std::bit_width(static_cast<unsigned>(nodes - 1)));
  return std::min(b, kBands - 1);
}

std::int32_t QueueIndex::clamped(Duration estimate) {
  return static_cast<std::int32_t>(
      std::min<Duration>(estimate, std::numeric_limits<std::int32_t>::max()));
}

QueueIndex::Summary QueueIndex::summary_of(const Slot& s) {
  Summary sum;
  if (s.nodes == kTombstone) return sum;
  sum.min_nodes = s.nodes;
  const auto estimate = clamped(s.estimate);
  for (int b = band_of(s.nodes); b < kBands; ++b) {
    sum.min_estimate[static_cast<std::size_t>(b)] = estimate;
  }
  return sum;
}

QueueIndex::Summary QueueIndex::merged(const Summary& a, const Summary& b) {
  Summary m;
  m.min_nodes = std::min(a.min_nodes, b.min_nodes);
  for (std::size_t i = 0; i < m.min_estimate.size(); ++i) {
    m.min_estimate[i] = std::min(a.min_estimate[i], b.min_estimate[i]);
  }
  return m;
}

void QueueIndex::clear() {
  scratch_.clear();
  rebuild(scratch_);
}

void QueueIndex::assign(const std::vector<JobId>& order,
                        const JobStore& store) {
  scratch_.clear();
  for (JobId id : order) {
    const Job& j = store.get(id);
    scratch_.push_back({id, j.nodes, j.estimate});
  }
  rebuild(scratch_);
}

void QueueIndex::push_back(const Job& job) {
  if (end_ == leaves_) {  // full: drop the tombstones and double the room
    gather_live();
    scratch_.push_back({job.id, job.nodes, job.estimate});
    rebuild(scratch_);
    return;
  }
  slots_[end_] = {job.id, job.nodes, job.estimate};
  ++live_;
  // The slot was padding, so its ancestors' minima can only fall. Bands
  // are cumulative, so a node's band minima fall with the band index and
  // the first band the job does not lower ends the walk along the band.
  const auto estimate = clamped(job.estimate);
  const auto band = static_cast<std::size_t>(band_of(job.nodes));
  for (std::size_t v = (leaves_ + end_) >> 1; v >= 1; v >>= 1) {
    Summary& m = inner_[v];
    bool lowered = false;
    if (job.nodes < m.min_nodes) {
      m.min_nodes = job.nodes;
      lowered = true;
    }
    for (std::size_t b = band; b < kBands && estimate < m.min_estimate[b];
         ++b) {
      m.min_estimate[b] = estimate;
      lowered = true;
    }
    if (!lowered) break;
  }
  ++end_;
}

void QueueIndex::begin_round() {
  settled_ = settled_ && erased_ == taken_.size();
  taken_.clear();
  next_taken_ = 0;
  erased_ = 0;
  if (end_ - live_ > live_) {
    gather_live();
    rebuild(scratch_);
  }
}

JobId QueueIndex::take(std::size_t p) {
  taken_.push_back(p);
  return slots_[p].id;
}

void QueueIndex::erase(JobId id) {
  // Starts arrive in the order they were taken, less any a decorator
  // vetoed, so the search from the previous hit finds each at once.
  for (std::size_t k = 0; k < taken_.size(); ++k) {
    const std::size_t i = (next_taken_ + k) % taken_.size();
    Slot& s = slots_[taken_[i]];
    if (s.id == id && s.nodes != kTombstone) {
      const Slot gone = s;
      s = Slot{};
      --live_;
      ++erased_;
      repair_up(taken_[i], gone);
      while (front_ < end_ && slots_[front_].nodes == kTombstone) ++front_;
      next_taken_ = i + 1;
      return;
    }
  }
  throw std::logic_error("QueueIndex: started job was not selected this round");
}

std::size_t QueueIndex::find(std::size_t from, int free_nodes, Duration window,
                             int extra, std::uint64_t& examined) const {
  if (free_nodes < 1) return npos;  // every job needs a node
  const auto fits = [&](int nodes, Duration estimate) {
    return nodes <= free_nodes && (estimate <= window || nodes <= extra);
  };
  from = std::max(from, front_);
  const std::size_t run_end = std::min(from + kScanRun, end_);
  for (std::size_t p = from; p < run_end; ++p) {
    ++examined;
    if (fits(slots_[p].nodes, slots_[p].estimate)) return p;
  }
  if (run_end >= end_) return npos;
  // Visit the maximal subtrees right of the run in queue order. Descend
  // into one whose summary may fit; when none of its slots does, move on
  // to the subtree right after it.
  const auto band = static_cast<std::size_t>(band_of(free_nodes));
  std::size_t v = leaves_ + run_end;
  while (true) {
    ++examined;
    if (v >= leaves_) {
      const Slot& s = slots_[v - leaves_];
      if (fits(s.nodes, s.estimate)) return v - leaves_;
    } else if (fits(inner_[v].min_nodes, inner_[v].min_estimate[band])) {
      v <<= 1;
      continue;
    }
    while (v & 1) v >>= 1;
    if (v == 0) return npos;  // climbed past the root
    ++v;
  }
}

bool QueueIndex::lists(const std::vector<JobId>& order) const {
  if (order.size() != live_) return false;
  std::size_t i = 0;
  for (std::size_t p = 0; p < end_; ++p) {
    if (slots_[p].nodes == kTombstone) continue;
    if (i == order.size() || slots_[p].id != order[i++]) return false;
  }
  return i == order.size();
}

void QueueIndex::rebuild(const std::vector<Slot>& live) {
  // Room for as many appends again as there are live slots, so growth
  // rebuilds stay amortized O(1) per append.
  leaves_ = std::max(kMinLeaves, std::bit_ceil(2 * live.size()));
  slots_.assign(leaves_, Slot{});
  std::copy(live.begin(), live.end(), slots_.begin());
  inner_.assign(leaves_, Summary{});
  // Level by level, only the first `count` nodes cover a used slot; the
  // rest summarize padding and keep the default summary.
  for (std::size_t first = leaves_ / 2, count = (live.size() + 1) / 2;
       first >= 1; first /= 2, count = (count + 1) / 2) {
    for (std::size_t v = first; v < first + count; ++v) {
      inner_[v] = merged(node(2 * v), node(2 * v + 1));
    }
  }
  end_ = live_ = live.size();
  front_ = 0;
  taken_.clear();
  next_taken_ = 0;
  erased_ = 0;
  settled_ = false;
}

void QueueIndex::gather_live() {
  scratch_.clear();
  for (std::size_t p = 0; p < end_; ++p) {
    if (slots_[p].nodes != kTombstone) scratch_.push_back(slots_[p]);
  }
}

void QueueIndex::repair_up(std::size_t p, const Slot& gone) {
  const auto estimate = clamped(gone.estimate);
  const auto band = static_cast<std::size_t>(band_of(gone.nodes));
  for (std::size_t v = (leaves_ + p) >> 1; v >= 1; v >>= 1) {
    // A node whose minima the removed job did not set keeps them, and so
    // do its ancestors.
    Summary& m = inner_[v];
    if (m.min_nodes != gone.nodes && m.min_estimate[band] != estimate) return;
    const Summary fresh = merged(node(2 * v), node(2 * v + 1));
    if (fresh == m) return;
    m = fresh;
  }
}

}  // namespace jsched::core
