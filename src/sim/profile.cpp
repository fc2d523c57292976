#include "sim/profile.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <climits>
#include <stdexcept>

namespace jsched::sim {

// --- CapacityOverlay --------------------------------------------------------

void CapacityOverlay::build(const std::vector<CapacitySpan>& spans,
                            std::vector<SpanIndex>* index) {
  clear();
  // Sweep over edge events sorted by time: +nodes at start, -nodes at end.
  // Every edge becomes a breakpoint (even when the running sum does not
  // change), so retire() can later adjust any span without inserting.
  constexpr std::size_t kOpen = static_cast<std::size_t>(-1);
  edges_.clear();
  if (index != nullptr) index->assign(spans.size(), SpanIndex{0, 0});
  for (std::size_t k = 0; k < spans.size(); ++k) {
    const CapacitySpan& s = spans[k];
    if (s.start >= s.end || s.nodes == 0) continue;
    const auto slot = static_cast<std::uint32_t>(2 * k);
    edges_.push_back({s.start, s.nodes, slot});
    if (s.end != kTimeInfinity) {
      edges_.push_back({s.end, -s.nodes, slot + 1});
    } else if (index != nullptr) {
      (*index)[k].hi = kOpen;  // reaches the last breakpoint, set below
    }
  }
  if (edges_.empty()) return;
  // The running sum after all edges at one instant does not depend on
  // their order, so only time is compared.
  std::sort(edges_.begin(), edges_.end(),
            [](const Edge& a, const Edge& b) { return a.t < b.t; });
  t_.reserve(edges_.size());
  add_.reserve(edges_.size());
  int running = 0;
  for (const Edge& e : edges_) {
    running += e.delta;
    if (!t_.empty() && t_.back() == e.t) {
      add_.back() = running;
    } else {
      t_.push_back(e.t);
      add_.push_back(running);
    }
    if (index != nullptr) {
      SpanIndex& span = (*index)[e.slot / 2];
      (e.slot % 2 == 0 ? span.lo : span.hi) = t_.size() - 1;
    }
  }
  if (index == nullptr) return;
  for (SpanIndex& s : *index) {
    if (s.hi == kOpen) s.hi = t_.size();
  }
}

void CapacityOverlay::retire(SpanIndex span, int nodes) {
  assert(span.lo <= span.hi && span.hi <= t_.size());
  for (std::size_t i = span.lo; i < span.hi; ++i) {
    add_[i] -= nodes;
    assert(add_[i] >= 0);
  }
}

std::size_t CapacityOverlay::materialize(Time t) {
  const auto it = std::lower_bound(t_.begin(), t_.end(), t);
  const std::size_t i = static_cast<std::size_t>(it - t_.begin());
  if (it == t_.end() || *it != t) {
    t_.insert(it, t);
    add_.insert(add_.begin() + static_cast<std::ptrdiff_t>(i),
                i == 0 ? 0 : add_[i - 1]);
  }
  return i;
}

void CapacityOverlay::add(Time start, Time end, int nodes) {
  if (start >= end || nodes == 0) return;
  const std::size_t lo = materialize(start);
  const std::size_t hi = end == kTimeInfinity ? t_.size() : materialize(end);
  for (std::size_t i = lo; i < hi; ++i) add_[i] += nodes;
}

Profile::Profile(int total_nodes) : total_(total_nodes) {
  if (total_nodes < 1) throw std::invalid_argument("Profile: total_nodes < 1");
  pts_.push_back({Time{0}, total_});
}

std::size_t Profile::lower_bound(Time t) const {
  return static_cast<std::size_t>(
      std::lower_bound(pts_.begin() + static_cast<std::ptrdiff_t>(front_),
                       pts_.end(), t,
                       [](const Breakpoint& b, Time v) { return b.t < v; }) -
      pts_.begin());
}

std::size_t Profile::segment_at(Time t) const {
  const std::size_t i = static_cast<std::size_t>(
      std::upper_bound(pts_.begin() + static_cast<std::ptrdiff_t>(front_),
                       pts_.end(), t,
                       [](Time v, const Breakpoint& b) { return v < b.t; }) -
      pts_.begin());
  assert(i > front_);  // breakpoint at/before any queried time
  return i - 1;
}

int Profile::capacity_at(Time t) const { return pts_[segment_at(t)].free; }

// --- segment tree ----------------------------------------------------------

void Profile::repair_range(std::size_t lo, std::size_t hi) const {
  assert(lo < hi && hi <= leaf_cap_);
  upkeep_.leaves_rewritten += hi - lo;
  for (std::size_t i = lo; i < hi; ++i) {
    tmin_[leaf_cap_ + i] = tmax_[leaf_cap_ + i] = pts_[i].free;
  }
  std::size_t l = leaf_cap_ + lo;
  std::size_t r = leaf_cap_ + hi - 1;
  while (l > 1) {
    l >>= 1;
    r >>= 1;
    for (std::size_t i = l; i <= r; ++i) {
      tmin_[i] = std::min(tmin_[2 * i], tmin_[2 * i + 1]);
      tmax_[i] = std::max(tmax_[2 * i], tmax_[2 * i + 1]);
    }
  }
}

void Profile::mark_stale(std::size_t lo, std::size_t hi) {
  hi = std::min(hi, dirty_from_);  // the suffix repair covers the rest
  if (lo >= hi) return;
  LeafRange* r = stale_.data();
  std::size_t n = stale_count_;
  std::size_t at = n;
  for (; at > 0 && r[at - 1].lo > lo; --at) r[at] = r[at - 1];
  r[at] = {lo, hi};
  ++n;
  // Join the ranges that now overlap or touch.
  std::size_t w = 0;
  for (std::size_t j = 1; j < n; ++j) {
    if (r[j].lo <= r[w].hi) {
      r[w].hi = std::max(r[w].hi, r[j].hi);
    } else {
      r[++w] = r[j];
    }
  }
  n = w + 1;
  if (n > kStaleRanges) {
    std::size_t best = 0;
    for (std::size_t j = 1; j + 1 < n; ++j) {
      if (r[j + 1].lo - r[j].hi < r[best + 1].lo - r[best].hi) best = j;
    }
    r[best].hi = r[best + 1].hi;
    for (std::size_t j = best + 1; j + 1 < n; ++j) r[j] = r[j + 1];
    --n;
  }
  stale_count_ = n;
}

void Profile::mark_suffix(std::size_t k) {
  dirty_from_ = std::min(dirty_from_, k);
  while (stale_count_ > 0 && stale_[stale_count_ - 1].lo >= dirty_from_) {
    --stale_count_;
  }
  if (stale_count_ > 0) {
    LeafRange& last = stale_[stale_count_ - 1];
    last.hi = std::min(last.hi, dirty_from_);
  }
}

void Profile::ensure_tree() const {
  if (dirty_from_ == kClean && stale_count_ == 0) return;
  const std::size_t n = pts_.size();
  std::size_t cap = leaf_cap_ ? leaf_cap_ : 1;
  while (cap < n) cap <<= 1;
  std::size_t from = std::min(dirty_from_, n);
  if (cap != leaf_cap_) {
    leaf_cap_ = cap;
    tmin_.assign(2 * cap, INT_MAX);
    tmax_.assign(2 * cap, INT_MIN);
    filled_ = 0;
    from = 0;
  }
  // The stale ranges below the suffix, then the suffix: each repair
  // recomputes the ancestors it shares with a later one, which the later
  // one recomputes again from fresh children.
  for (std::size_t j = 0; j < stale_count_; ++j) {
    const std::size_t hi = std::min(stale_[j].hi, from);
    if (stale_[j].lo < hi) repair_range(stale_[j].lo, hi);
  }
  stale_count_ = 0;
  // Leaves past the new size (after a shrink) revert to sentinels.
  for (std::size_t i = n; i < filled_; ++i) {
    tmin_[cap + i] = INT_MAX;
    tmax_[cap + i] = INT_MIN;
  }
  const std::size_t touched_end = std::max(filled_, n);
  filled_ = n;
  if (from < touched_end) {
    upkeep_.leaves_rewritten += touched_end - from;
    for (std::size_t i = from; i < n; ++i) {
      tmin_[cap + i] = tmax_[cap + i] = pts_[i].free;
    }
    std::size_t lo = cap + from;
    std::size_t hi = cap + touched_end - 1;
    while (lo > 1) {
      lo >>= 1;
      hi >>= 1;
      for (std::size_t i = lo; i <= hi; ++i) {
        tmin_[i] = std::min(tmin_[2 * i], tmin_[2 * i + 1]);
        tmax_[i] = std::max(tmax_[2 * i], tmax_[2 * i + 1]);
      }
    }
  }
  dirty_from_ = kClean;
}

std::size_t Profile::first_below(std::size_t from, int nodes) const {
  const std::size_t n = pts_.size();
  if (from >= n) return n;
  std::size_t i = leaf_cap_ + from;
  if (tmin_[i] >= nodes) {
    // Climb right along the tree until a subtree holds a value < nodes.
    while (true) {
      while (i & 1) {
        if (i == 1) return n;  // root: everything to the right exhausted
        i >>= 1;
      }
      ++i;
      if (tmin_[i] < nodes) break;
    }
  }
  while (i < leaf_cap_) {
    i <<= 1;
    if (tmin_[i] >= nodes) ++i;
  }
  const std::size_t idx = i - leaf_cap_;
  return idx < n ? idx : n;
}

std::size_t Profile::first_at_least(std::size_t from, int nodes) const {
  const std::size_t n = pts_.size();
  if (from >= n) return n;
  std::size_t i = leaf_cap_ + from;
  if (tmax_[i] < nodes) {
    while (true) {
      while (i & 1) {
        if (i == 1) return n;
        i >>= 1;
      }
      ++i;
      if (tmax_[i] >= nodes) break;
    }
  }
  while (i < leaf_cap_) {
    i <<= 1;
    if (tmax_[i] < nodes) ++i;
  }
  const std::size_t idx = i - leaf_cap_;
  return idx < n ? idx : n;
}

// --- queries ----------------------------------------------------------------

Time Profile::earliest_fit(Time from, Duration duration, int nodes) const {
  assert(duration > 0);
  if (nodes > total_) {
    throw std::invalid_argument("Profile::earliest_fit: job wider than machine");
  }
  // The blocking-run descents may inspect any suffix subtree, so the whole
  // tree has to be valid.
  ensure_tree();
  const std::size_t n = pts_.size();

  // Candidate window starts are `from` and the starts of segments with
  // enough free capacity; between candidates, jump over whole blocking
  // runs with one tree descent each.
  std::size_t j = segment_at(from);
  Time candidate = from;
  if (pts_[j].free < nodes) {
    j = first_at_least(j + 1, nodes);
    if (j == n) {
      // Profile never recovers — cannot happen while allocations are
      // finite, because the final segment is full capacity.
      throw std::logic_error("Profile: final segment under capacity");
    }
    candidate = pts_[j].t;
  }
  while (true) {
    const Time end = candidate > kTimeInfinity - duration
                         ? kTimeInfinity
                         : candidate + duration;
    const std::size_t block = first_below(j, nodes);
    if (block == n || pts_[block].t >= end) return candidate;
    j = first_at_least(block + 1, nodes);
    if (j == n) {
      throw std::logic_error("Profile: final segment under capacity");
    }
    candidate = pts_[j].t;
  }
}

Time Profile::earliest_fit_with(const CapacityOverlay& extra, Time from,
                                Duration duration, int nodes,
                                Time stop) const {
  assert(duration > 0);
  assert(stop >= from);
  std::size_t i = segment_at(from);
  const std::size_t n = pts_.size();
  // Overlay position: index of the last overlay breakpoint at or before
  // the walk, or SIZE_MAX before the first.
  std::size_t o = static_cast<std::size_t>(
      std::upper_bound(extra.t_.begin(), extra.t_.end(), from) -
      extra.t_.begin());
  int over = o == 0 ? 0 : extra.add_[o - 1];

  // Standard run-length scan over the merged step function: `run` is the
  // earliest instant since which combined capacity has continuously been
  // >= nodes (kTimeInfinity = no open run).
  int combined = pts_[i].free + over;
  Time run = combined >= nodes ? from : kTimeInfinity;
  while (true) {
    const Time next_p = i + 1 < n ? pts_[i + 1].t : kTimeInfinity;
    const Time next_o = o < extra.t_.size() ? extra.t_[o] : kTimeInfinity;
    const Time boundary = std::min(next_p, next_o);
    if (run != kTimeInfinity && boundary - run >= duration) return run;
    if (boundary >= stop) {
      // The walk reached the caller-guaranteed fit at `stop`. An open run
      // that started earlier extends through [stop, stop + duration) by
      // that guarantee, so it is the (earlier) answer; otherwise `stop`
      // itself is the earliest fit.
      if (run != kTimeInfinity) return run < stop ? run : stop;
      if (boundary == kTimeInfinity) {
        // Only reachable with stop == kTimeInfinity: the final merged
        // segment extends forever under capacity — impossible while
        // allocations are finite, same invariant as earliest_fit.
        throw std::logic_error("Profile: final segment under capacity");
      }
      return stop;
    }
    if (boundary == next_p) ++i;
    if (boundary == next_o) over = extra.add_[o++];
    combined = pts_[i].free + over;
    if (combined >= nodes) {
      if (run == kTimeInfinity) run = boundary;
    } else {
      run = kTimeInfinity;
    }
  }
}

Time Profile::earliest_fit_in_growth(const CapacityOverlay& extra,
                                     const CapacityOverlay& growth, Time from,
                                     Time before, Duration duration,
                                     int nodes) const {
  assert(duration > 0);
  assert(from >= pts_[front_].t);  // the left walk never leaves the live range
  if (before <= from) return before;
  // A fit starting before `before` lies inside [from, horizon), and so does
  // the crossing it contains.
  const Time horizon =
      before > kTimeInfinity - duration ? kTimeInfinity : before + duration;
  const std::size_t n = pts_.size();
  const std::size_t on = extra.t_.size();
  const std::size_t gn = growth.t_.size();

  // Merged walk state over `*this + extra`: the piece containing instant
  // `t` is profile segment i combined with the overlay value left of
  // extra.t_[o] (o = overlay breakpoints at or before t).
  std::size_t i = 0;
  std::size_t o = 0;
  Time t = kTimeInfinity;  // not positioned yet
  const auto combined = [&] {
    return pts_[i].free + (o == 0 ? 0 : extra.add_[o - 1]);
  };
  const auto piece_end = [&] {
    return std::min(i + 1 < n ? pts_[i + 1].t : kTimeInfinity,
                    o < on ? extra.t_[o] : kTimeInfinity);
  };
  const auto advance = [&] {  // step to the next merged piece
    const Time b = piece_end();
    if (i + 1 < n && pts_[i + 1].t == b) ++i;
    if (o < on && extra.t_[o] == b) ++o;
    t = b;
  };

  // Invariant: no fit starts in [from, scanned).
  Time scanned = from;
  std::size_t gi = static_cast<std::size_t>(
      std::upper_bound(growth.t_.begin(), growth.t_.end(), from) -
      growth.t_.begin());
  if (gi > 0) --gi;
  for (; gi < gn && growth.t_[gi] < horizon; ++gi) {
    const int g = growth.add_[gi];
    const Time gend = gi + 1 < gn ? growth.t_[gi + 1] : kTimeInfinity;
    const Time lo = std::max(growth.t_[gi], scanned);
    const Time hi = std::min(gend, horizon);
    if (g <= 0 || lo >= hi) continue;
    // Position the walk at `lo`: resume when it is inside the current
    // piece, otherwise one binary search per structure.
    if (t == kTimeInfinity || lo < t || lo >= piece_end()) {
      i = segment_at(lo);
      o = static_cast<std::size_t>(
          std::upper_bound(extra.t_.begin(), extra.t_.end(), lo) -
          extra.t_.begin());
    }
    t = lo;
    while (t < hi) {
      const int c = combined();
      if (c < nodes || c - g >= nodes) {  // not a crossing
        advance();
        continue;
      }
      // Crossing at t. Any fit through it lies in the run of
      // combined >= nodes containing t; find where that run starts (no
      // earlier than `scanned`, before which no fit starts)...
      Time a = t;
      for (std::size_t pi = i, oi = o; a > scanned;) {
        // Step to the merged piece just left of `a`.
        if (pts_[pi].t == a) --pi;
        if (oi > 0 && extra.t_[oi - 1] == a) --oi;
        if (pts_[pi].free + (oi == 0 ? 0 : extra.add_[oi - 1]) < nodes) break;
        Time piece_start = pts_[pi].t;
        if (oi > 0) piece_start = std::max(piece_start, extra.t_[oi - 1]);
        a = std::max(piece_start, scanned);
      }
      // ...then how far it reaches.
      if (a >= before) return before;  // later runs start later still
      while (true) {
        const Time b = piece_end();
        if (b - a >= duration) return a;
        advance();
        if (combined() < nodes) break;
      }
      // The run [a, t) is too short and t is blocked: no fit starts
      // before t.
      scanned = t;
    }
  }
  return before;
}

// --- mutations --------------------------------------------------------------

std::size_t Profile::insert_at(std::size_t k, Breakpoint b) {
  assert(k > front_ && k <= pts_.size());
  ++upkeep_.structural_edits;
  if (front_ > 0 && k - front_ < pts_.size() - k) {
    // Slide [front_, k) one slot left, into the dead prefix.
    const auto head = pts_.begin() + static_cast<std::ptrdiff_t>(front_);
    std::move(head, pts_.begin() + static_cast<std::ptrdiff_t>(k), head - 1);
    upkeep_.slots_moved += k - front_;
    --front_;
    pts_[k - 1] = b;
    mark_stale(front_, k);
    return k - 1;
  }
  upkeep_.slots_moved += pts_.size() - k;
  pts_.insert(pts_.begin() + static_cast<std::ptrdiff_t>(k), b);
  mark_suffix(k);
  return k;
}

std::size_t Profile::erase_at(std::size_t k) {
  assert(k > front_ && k < pts_.size());
  ++upkeep_.structural_edits;
  if (k - front_ < pts_.size() - 1 - k) {
    // Slide [front_, k) one slot right, over the erased breakpoint.
    const auto head = pts_.begin() + static_cast<std::ptrdiff_t>(front_);
    std::move_backward(head, pts_.begin() + static_cast<std::ptrdiff_t>(k),
                       pts_.begin() + static_cast<std::ptrdiff_t>(k + 1));
    upkeep_.slots_moved += k - front_;
    ++front_;
    mark_stale(front_, k + 1);
    return 1;
  }
  upkeep_.slots_moved += pts_.size() - 1 - k;
  pts_.erase(pts_.begin() + static_cast<std::ptrdiff_t>(k));
  mark_suffix(k);
  return 0;
}

void Profile::add_over_range(Time start, Time end, int delta) {
  if (start >= end || delta == 0) return;

  // Materialize breakpoints at the range edges. Structural edits (insert
  // or merge-erase) shift leaf indices and defer the tree repair; pure
  // value updates keep the tree geometry and are repaired in place.
  bool structural = false;
  std::size_t lo = lower_bound(start);
  if (lo == pts_.size() || pts_[lo].t != start) {
    lo = insert_at(lo, {start, pts_[lo - 1].free});
    structural = true;
  }
  std::size_t hi = pts_.size();
  if (end != kTimeInfinity) {
    hi = lower_bound(end);
    if (hi == pts_.size() || pts_[hi].t != end) {
      const std::size_t at = insert_at(hi, {end, pts_[hi - 1].free});
      lo -= hi - at;  // a head shift moved `lo` along with it
      hi = at;
      structural = true;
    }
  }

  for (std::size_t i = lo; i < hi; ++i) {
    pts_[i].free += delta;
    assert(pts_[i].free >= 0 && pts_[i].free <= total_);
  }

  // A uniform add preserves all differences inside (lo, hi); only the two
  // edges can newly equal their predecessors. Merge them away to keep the
  // representation canonical (erase `hi` first; a head shift there moves
  // `lo` up one).
  if (hi < pts_.size() && pts_[hi].free == pts_[hi - 1].free) {
    lo += erase_at(hi);
    structural = true;
  }
  if (lo > front_ && pts_[lo].free == pts_[lo - 1].free) {
    erase_at(lo);
    structural = true;
  }

  if (!structural && leaf_cap_ >= pts_.size()) {
    // Leaf indices did not shift: write the touched leaves and recompute
    // their ancestors — O(touched + log n) — instead of deferring. Stale
    // leaves elsewhere stay tracked.
    repair_range(lo, hi);
  } else {
    // The rewritten values, in today's indices or covered by what the
    // erases marked: a head shift at k marks [front_, k + 1), a suffix
    // shift everything from k.
    mark_stale(lo, hi);
  }
}

void Profile::allocate(Time start, Duration duration, int nodes) {
  assert(duration > 0 && nodes >= 0);
  const Time end =
      start > kTimeInfinity - duration ? kTimeInfinity : start + duration;
  add_over_range(start, end, -nodes);
}

void Profile::release(Time start, Duration duration, int nodes) {
  assert(duration > 0 && nodes >= 0);
  const Time end =
      start > kTimeInfinity - duration ? kTimeInfinity : start + duration;
  add_over_range(start, end, nodes);
}

void Profile::compact(Time now) {
  assert(now >= pts_[front_].t);  // simulation time never flows backwards
  const std::size_t i = segment_at(now);
  if (i == front_) return;  // nothing before `now` to drop: no-op, no churn
  // Advance the live-range offset instead of splicing the vector: leaf
  // indices stay put, so the segment tree stays valid (it only ever stores
  // `free` values, and queries never look left of a live index).
  front_ = i;
  // Re-key the effective breakpoint at `now` for a tidy front (already
  // there when `now` hit it exactly).
  pts_[front_].t = now;
  // Splice the dead prefix out only once it dominates the storage, making
  // the O(n) erase + full-suffix tree repair amortized O(1) per compact.
  // kHeadroom dead slots stay, for inserts near the front to shift into.
  if (front_ >= 2 * kHeadroom && 2 * front_ >= pts_.size()) {
    upkeep_.slots_moved += pts_.size() - front_;
    pts_.erase(pts_.begin(),
               pts_.begin() + static_cast<std::ptrdiff_t>(front_ - kHeadroom));
    front_ = kHeadroom;
    dirty_from_ = front_;
    stale_count_ = 0;
  }
}

std::string Profile::dump() const {
  std::string out;
  char buf[24];  // any 64-bit integer in decimal, sign included
  for (std::size_t i = front_; i < pts_.size(); ++i) {
    out.append(buf, std::to_chars(buf, buf + sizeof buf, pts_[i].t).ptr);
    out.push_back(':');
    out.append(buf, std::to_chars(buf, buf + sizeof buf, pts_[i].free).ptr);
    out.push_back(' ');
  }
  return out;
}

}  // namespace jsched::sim
