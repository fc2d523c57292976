// Deterministic sweep partitioning and shard-journal merging.
//
// A sweep is one list of cells (sweep_cells: both objectives' paper grid,
// 26 cells), each with a collision-free 64-bit FNV cell key
// (eval/journal.h). To scale a sweep past one machine's cores, the list is
// partitioned into N disjoint shards *by key*: sort the keys, deal rank r
// to shard r % N. The assignment is pure arithmetic over data every
// participant already has (the workload fingerprint, machine size and
// algorithm specs), so N worker processes — spawned by the tools/sweepd
// coordinator or launched by hand across machines — and the merge agree
// on the partition with zero coordination, and the same partition is
// recomputed identically on resume.
//
// Each shard appends finished cells to its own SweepJournal. The merge
// step reads all shard journals, validates the partition invariants
// (every expected cell present exactly once, nothing foreign, nothing
// duplicated across shards) and writes a single merged journal whose
// bytes are identical to what an uninterrupted single-process sweep with
// threads=1 would have journaled — the v1 record format round-trips
// exactly (doubles are IEEE-754 bit patterns), and records are emitted in
// grid-enumeration order, which is the serial execution order. Resuming a
// grid from the merged journal therefore reproduces every RunResult, and
// every schedule fingerprint, bit for bit: how the computation was
// partitioned is unobservable in the results.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "eval/experiment.h"

namespace jsched::eval {

/// The deterministic cell-to-shard assignment for one sweep: keys are
/// sorted ascending and rank r maps to shard r % count. Rank-based dealing
/// (rather than key % count) guarantees balanced cell *counts* per shard
/// for any key distribution while remaining a pure function of the key
/// set. Construction throws std::invalid_argument on duplicate keys (two
/// distinct cells may never share a key) or count == 0.
class ShardPlan {
 public:
  ShardPlan(std::vector<std::uint64_t> keys, std::size_t count);

  std::size_t count() const noexcept { return count_; }

  /// Shard owning `key`; throws std::out_of_range when `key` is not part
  /// of this sweep.
  std::size_t shard_of(std::uint64_t key) const;

 private:
  std::vector<std::uint64_t> sorted_;
  std::size_t count_;
};

/// The paper's evaluation as one list: core::paper_grid for the unweighted
/// objective, then for the weighted one (26 cells), each keyed exactly as
/// run_grid_outcomes journals it. This is the serial order of the two
/// grids. Every participant of a sharded sweep derives its work from this
/// list: a worker deals a ShardPlan over its keys and runs its own cells,
/// and the merge expects its keys and deals the same plan to attribute
/// what is missing.
std::vector<SweepCell> sweep_cells(std::uint64_t workload_fnv,
                                   int machine_nodes, std::uint64_t salt = 0);

/// What merge_shard_journals found and wrote.
struct MergeReport {
  std::size_t merged = 0;      // records written to the merged journal
  std::size_t duplicates = 0;  // keys present in more than one shard
  /// Expected keys found in no shard journal, in enumeration order.
  std::vector<std::uint64_t> missing;
  /// missing split by owning shard, one entry per shard path.
  std::vector<std::size_t> missing_by_shard;
  /// Keys found in shard journals but not expected — footprint of a shard
  /// journal reused across different sweeps.
  std::size_t unexpected = 0;

  bool ok() const {
    return duplicates == 0 && missing.empty() && unexpected == 0;
  }
  /// One-line human summary ("26 cells merged" / "2 missing (shard 1: 2)").
  std::string describe() const;
};

struct MergeOptions {
  /// Shard journal paths in shard-index order, one per shard: their count
  /// is the sweep's shard count. A path may name a missing file (a shard
  /// that never started): its cells simply report missing.
  std::vector<std::string> shard_paths;
  /// The complete expected cell set, in the order records should appear in
  /// the merged journal (sweep_cells order for bit-identity with a serial
  /// single-process journal). The merge deals the workers' ShardPlan over
  /// these keys to attribute each missing cell to the shard that owns it.
  std::vector<std::uint64_t> expected_keys;
  /// Segment fingerprint (eval::sweep_fingerprint) for the merged journal.
  std::uint64_t sweep_fingerprint = 0;
  /// Output path; an existing file is replaced, not appended to.
  std::string out_path;
};

/// Merge shard journals into one (see file comment for the invariants).
/// All found expected cells are written even when the report is not ok(),
/// so a partially crashed sweep merges to a journal that resumes exactly
/// the missing cells. Throws on unreadable/corrupt journals.
MergeReport merge_shard_journals(const MergeOptions& options);

}  // namespace jsched::eval
