#include "sim/reference_profile.h"

#include <cassert>
#include <charconv>
#include <stdexcept>

namespace jsched::sim {

ReferenceProfile::ReferenceProfile(int total_nodes) : total_(total_nodes) {
  if (total_nodes < 1) {
    throw std::invalid_argument("ReferenceProfile: total_nodes < 1");
  }
  cap_.emplace(Time{0}, total_);
}

std::map<Time, int>::const_iterator ReferenceProfile::at(Time t) const {
  auto it = cap_.upper_bound(t);
  assert(it != cap_.begin());  // entry at/before any queried time
  return std::prev(it);
}

int ReferenceProfile::capacity_at(Time t) const { return at(t)->second; }

bool ReferenceProfile::fits(Time start, Duration duration, int nodes) const {
  assert(duration > 0);
  auto it = at(start);
  const Time end = start > kTimeInfinity - duration ? kTimeInfinity
                                                    : start + duration;
  for (; it != cap_.end() && it->first < end; ++it) {
    if (it->second < nodes) return false;
  }
  return true;
}

Time ReferenceProfile::earliest_fit(Time from, Duration duration,
                                    int nodes) const {
  assert(duration > 0);
  if (nodes > total_) {
    throw std::invalid_argument(
        "ReferenceProfile::earliest_fit: job wider than machine");
  }
  Time candidate = from;
  auto it = at(from);
  while (true) {
    // Scan forward from `candidate`; on the first under-capacity segment,
    // restart the window at the segment's end.
    const Time end = candidate > kTimeInfinity - duration ? kTimeInfinity
                                                          : candidate + duration;
    bool ok = true;
    for (auto scan = it; scan != cap_.end() && scan->first < end; ++scan) {
      if (scan->second < nodes) {
        auto next = std::next(scan);
        if (next == cap_.end()) {
          // Profile never recovers — cannot happen while allocations are
          // finite, because the final segment is full capacity.
          throw std::logic_error("ReferenceProfile: final segment under capacity");
        }
        candidate = next->first;
        it = next;
        ok = false;
        break;
      }
    }
    if (ok) return candidate;
  }
}

void ReferenceProfile::add_over_range(Time start, Time end, int delta) {
  if (start >= end) return;
  // Materialize breakpoints at the range edges.
  auto lo = cap_.lower_bound(start);
  if (lo == cap_.end() || lo->first != start) {
    assert(lo != cap_.begin());
    lo = cap_.emplace_hint(lo, start, std::prev(lo)->second);
  }
  if (end != kTimeInfinity) {
    auto hi = cap_.lower_bound(end);
    if (hi == cap_.end() || hi->first != end) {
      assert(hi != cap_.begin());
      cap_.emplace_hint(hi, end, std::prev(hi)->second);
    }
  }
  for (auto it = lo; it != cap_.end() && (end == kTimeInfinity || it->first < end);
       ++it) {
    it->second += delta;
    assert(it->second >= 0 && it->second <= total_);
  }
  // Merge redundant breakpoints inside/just after the touched range.
  auto it = lo == cap_.begin() ? lo : std::prev(lo);
  while (it != cap_.end()) {
    auto next = std::next(it);
    if (next == cap_.end() ||
        (end != kTimeInfinity && next->first > end)) {
      break;
    }
    if (next->second == it->second) {
      cap_.erase(next);
    } else {
      it = next;
    }
  }
}

void ReferenceProfile::allocate(Time start, Duration duration, int nodes) {
  assert(duration > 0 && nodes >= 0);
  const Time end =
      start > kTimeInfinity - duration ? kTimeInfinity : start + duration;
  add_over_range(start, end, -nodes);
}

void ReferenceProfile::release(Time start, Duration duration, int nodes) {
  assert(duration > 0 && nodes >= 0);
  const Time end =
      start > kTimeInfinity - duration ? kTimeInfinity : start + duration;
  add_over_range(start, end, nodes);
}

void ReferenceProfile::compact(Time now) {
  auto it = cap_.upper_bound(now);
  assert(it != cap_.begin());
  --it;  // entry in effect at `now`
  if (it == cap_.begin()) return;
  const int value = it->second;
  cap_.erase(cap_.begin(), it);
  // Re-key the effective entry at `now` for a tidy front.
  cap_.erase(cap_.begin());
  cap_.emplace(now, value);
}

std::string ReferenceProfile::dump() const {
  std::string out;
  char buf[24];  // any 64-bit integer in decimal, sign included
  for (const auto& [t, c] : cap_) {
    out.append(buf, std::to_chars(buf, buf + sizeof buf, t).ptr);
    out.push_back(':');
    out.append(buf, std::to_chars(buf, buf + sizeof buf, c).ptr);
    out.push_back(' ');
  }
  return out;
}

}  // namespace jsched::sim
