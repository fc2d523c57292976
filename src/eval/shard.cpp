#include "eval/shard.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "eval/internal.h"
#include "eval/journal.h"

namespace jsched::eval {

ShardPlan::ShardPlan(std::vector<std::uint64_t> keys, std::size_t count)
    : sorted_(std::move(keys)), count_(count) {
  if (count_ == 0) {
    throw std::invalid_argument("ShardPlan: shard count must be >= 1");
  }
  std::sort(sorted_.begin(), sorted_.end());
  const auto dup = std::adjacent_find(sorted_.begin(), sorted_.end());
  if (dup != sorted_.end()) {
    throw std::invalid_argument(
        "ShardPlan: duplicate cell key " + std::to_string(*dup) +
        " — two distinct cells may never share a key");
  }
}

std::size_t ShardPlan::shard_of(std::uint64_t key) const {
  const auto it = std::lower_bound(sorted_.begin(), sorted_.end(), key);
  if (it == sorted_.end() || *it != key) {
    throw std::out_of_range("ShardPlan: key " + std::to_string(key) +
                            " is not part of this sweep");
  }
  return static_cast<std::size_t>(it - sorted_.begin()) % count_;
}

std::vector<SweepCell> sweep_cells(std::uint64_t workload_fnv,
                                   int machine_nodes, std::uint64_t salt) {
  std::vector<SweepCell> cells;
  for (core::WeightKind weight :
       {core::WeightKind::kUnit, core::WeightKind::kEstimatedArea}) {
    for (SweepCell& cell :
         detail::grid_cells(workload_fnv, machine_nodes, weight, salt)) {
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

std::string MergeReport::describe() const {
  std::string out = std::to_string(merged) + " cells merged";
  if (ok()) return out;
  if (duplicates > 0) {
    out += ", " + std::to_string(duplicates) + " duplicate" +
           (duplicates == 1 ? "" : "s") + " across shards";
  }
  if (!missing.empty()) {
    out += ", " + std::to_string(missing.size()) + " missing";
    if (!missing_by_shard.empty()) {
      out += " (";
      bool first = true;
      for (std::size_t s = 0; s < missing_by_shard.size(); ++s) {
        if (missing_by_shard[s] == 0) continue;
        if (!first) out += ", ";
        out += "shard " + std::to_string(s) + ": " +
               std::to_string(missing_by_shard[s]);
        first = false;
      }
      out += ")";
    }
  }
  if (unexpected > 0) {
    out += ", " + std::to_string(unexpected) + " unexpected key" +
           (unexpected == 1 ? "" : "s");
  }
  return out;
}

MergeReport merge_shard_journals(const MergeOptions& options) {
  // The workers' partition, dealt over the same keys; it also refuses
  // duplicate keys and an empty shard list.
  const ShardPlan plan(options.expected_keys, options.shard_paths.size());
  MergeReport report;
  report.missing_by_shard.assign(plan.count(), 0);
  const std::unordered_set<std::uint64_t> expected(
      options.expected_keys.begin(), options.expected_keys.end());

  // Gather every shard's cells; the first shard (in index order) to
  // provide a key wins, later providers count as duplicates. With the
  // deterministic partition duplicates are impossible, so any hit here
  // means two shards were launched with overlapping specs — worth failing
  // the merge over, not silently resolving.
  std::unordered_map<std::uint64_t, RunResult> found;
  found.reserve(expected.size());
  for (const std::string& path : options.shard_paths) {
    if (!std::ifstream(path).good()) continue;  // never-started shard
    SweepJournal shard(path);
    for (auto& [key, result] : shard.snapshot()) {
      if (expected.find(key) == expected.end()) {
        ++report.unexpected;
        continue;
      }
      if (!found.emplace(key, std::move(result)).second) {
        ++report.duplicates;
      }
    }
  }

  // Rewrite in enumeration order. The v1 format round-trips exactly, and a
  // serial single-process sweep journals cells in this same order, so the
  // merged file is byte-identical to the never-sharded one.
  std::remove(options.out_path.c_str());
  SweepJournal merged(options.out_path);
  merged.open_segment(options.sweep_fingerprint);
  for (const std::uint64_t key : options.expected_keys) {
    const auto it = found.find(key);
    if (it == found.end()) {
      report.missing.push_back(key);
      ++report.missing_by_shard[plan.shard_of(key)];
      continue;
    }
    merged.record(key, it->second);
    ++report.merged;
  }
  return report;
}

}  // namespace jsched::eval
