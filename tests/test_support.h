// Shared fixtures and builders for the test suite.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/dispatch.h"
#include "core/factory.h"
#include "serve/feed.h"
#include "sim/machine.h"
#include "sim/schedule.h"
#include "sim/simulator.h"
#include "workload/workload.h"

namespace jsched::test {

/// Shorthand job builder (id assigned by Workload::finalize).
Job make_job(Time submit, int nodes, Duration runtime, Duration estimate = 0);

/// Build a finalized workload from jobs (estimates default to runtimes).
workload::Workload make_workload(std::vector<Job> jobs);

/// Simulate `spec` over `w` on an `nodes`-wide machine with validation on.
sim::Schedule run(const core::AlgorithmSpec& spec, const workload::Workload& w,
                  int nodes = 16);

/// A small mixed workload exercising queueing, backfilling holes and
/// over-estimation; deterministic.
workload::Workload small_mixed_workload();

/// Simulate `spec` over `w` and return the schedule's FNV-1a fingerprint
/// (sim::schedule_fingerprint). Two runs producing the same fingerprint
/// scheduled every job bit-identically — the one-assert witness used by
/// the golden-grid regression test and by future optimization PRs.
std::uint64_t run_fingerprint(const core::AlgorithmSpec& spec,
                              const workload::Workload& w, int nodes = 16);

/// Every complete line of `path`, in file order, collected through
/// util::AppendLog::for_each_line (torn tail dropped, missing file empty).
std::vector<std::string> read_lines(const std::string& path);

/// In-memory feed over a fixed list of records. Records must be in
/// non-decreasing submit order, and live records (-1) are not allowed:
/// a script is replay-style by definition. Throws std::invalid_argument
/// otherwise.
class ScriptFeed final : public serve::Feed {
 public:
  explicit ScriptFeed(std::vector<serve::SubmitRecord> records);

  bool poll(Time vnow, std::vector<serve::SubmitRecord>& out) override;
  Time next_submit() const override;

 private:
  std::vector<serve::SubmitRecord> records_;
  std::size_t pos_ = 0;
};

/// EASY backfilling by a linear scan of the whole wait queue every round:
/// the selection core::EasyBackfillDispatch made before it searched a
/// core::QueueIndex, kept as the reference the differential suite holds
/// it to. Counts every queue position it reads in slots_examined, and a
/// shadow computation for every blocked head.
class LinearEasyDispatch final : public core::Dispatcher {
 public:
  std::string name() const override { return "EASY"; }
  void reset(const sim::Machine&, const core::JobStore& store) override {
    store_ = &store;
    stats_ = {};
  }
  void select(Time now, int free_nodes, const std::vector<JobId>& order,
              const std::vector<core::RunningJob>& running,
              std::vector<JobId>& starts) override;

  const core::SelectStats& select_stats() const noexcept { return stats_; }

 private:
  const core::JobStore* store_ = nullptr;
  std::vector<core::RunningJob> active_;
  core::SelectStats stats_;
};

/// Garey&Graham first fit by a linear scan of the whole wait queue: the
/// reference for core::FirstFitDispatch, counting the positions it reads.
class LinearFirstFitDispatch final : public core::Dispatcher {
 public:
  std::string name() const override { return "FF"; }
  void reset(const sim::Machine&, const core::JobStore& store) override {
    store_ = &store;
    stats_ = {};
  }
  void select(Time now, int free_nodes, const std::vector<JobId>& order,
              const std::vector<core::RunningJob>& running,
              std::vector<JobId>& starts) override;

  const core::SelectStats& select_stats() const noexcept { return stats_; }

 private:
  const core::JobStore* store_ = nullptr;
  core::SelectStats stats_;
};

}  // namespace jsched::test
