#include "eval/reporting.h"

#include <array>
#include <cstdio>
#include <utility>

namespace jsched::eval {
namespace {

constexpr std::array<core::OrderKind, 4> kRowOrders = {
    core::OrderKind::kFcfs, core::OrderKind::kPsrs,
    core::OrderKind::kSmartFfia, core::OrderKind::kSmartNfiw};

const RunResult* try_find(const std::vector<RunResult>& results,
                          core::OrderKind order, core::DispatchKind dispatch) {
  for (const RunResult& r : results) {
    if (r.spec.order == order && r.spec.dispatch == dispatch) return &r;
  }
  return nullptr;
}

}  // namespace

util::Table response_time_table(const std::vector<RunResult>& results,
                                double RunResult::* metric,
                                const std::string& title) {
  const RunResult& ref =
      find(results, core::OrderKind::kFcfs, core::DispatchKind::kEasy);
  const double reference = ref.*metric;

  util::Table t({"Algorithm", "Listscheduler", "pct", "Backfilling", "pct",
                 "EASY-Backfilling", "pct"});
  t.set_title(title);
  for (core::OrderKind order : kRowOrders) {
    std::vector<std::string> row;
    row.push_back(core::to_string(order));
    for (core::DispatchKind dispatch :
         {core::DispatchKind::kList, core::DispatchKind::kConservative,
          core::DispatchKind::kEasy}) {
      const RunResult* r = try_find(results, order, dispatch);
      if (r != nullptr) {
        row.push_back(util::sci(r->*metric));
        row.push_back(util::pct(r->*metric, reference));
      } else {
        row.push_back("-");
        row.push_back("-");
      }
    }
    t.add_row(std::move(row));
  }
  if (const RunResult* gg = try_find(results, core::OrderKind::kFcfs,
                                     core::DispatchKind::kFirstFit)) {
    t.add_row({"Garey&Graham", util::sci(gg->*metric),
               util::pct(gg->*metric, reference), "-", "-", "-", "-"});
  }
  return t;
}

util::Table cpu_time_table(const std::vector<RunResult>& results,
                           const std::string& title) {
  const RunResult& ref =
      find(results, core::OrderKind::kFcfs, core::DispatchKind::kEasy);
  const double reference = ref.scheduler_cpu_seconds;

  util::Table t({"Algorithm", "Listscheduler", "pct", "EASY-Backfilling",
                 "pct"});
  t.set_title(title);
  for (core::OrderKind order : kRowOrders) {
    std::vector<std::string> row;
    row.push_back(core::to_string(order));
    for (core::DispatchKind dispatch :
         {core::DispatchKind::kList, core::DispatchKind::kEasy}) {
      const RunResult* r = try_find(results, order, dispatch);
      if (r != nullptr) {
        row.push_back(util::fixed(r->scheduler_cpu_seconds, 3) + "s");
        row.push_back(util::pct(r->scheduler_cpu_seconds, reference));
      } else {
        row.push_back("-");
        row.push_back("-");
      }
    }
    t.add_row(std::move(row));
  }
  if (const RunResult* gg = try_find(results, core::OrderKind::kFcfs,
                                     core::DispatchKind::kFirstFit)) {
    t.add_row({"Garey&Graham", util::fixed(gg->scheduler_cpu_seconds, 3) + "s",
               util::pct(gg->scheduler_cpu_seconds, reference), "-", "-"});
  }
  return t;
}

std::string figure_csv(const std::vector<RunResult>& results,
                       double RunResult::* metric) {
  util::Table t({"algorithm", "dispatch", "value"});
  for (const RunResult& r : results) {
    t.add_row({core::to_string(r.spec.order), core::to_string(r.spec.dispatch),
               util::sci(r.*metric, 6)});
  }
  return t.to_csv();
}

std::string experiment_title(const std::string& workload_name,
                             std::size_t jobs, core::WeightKind weight) {
  std::string objective = weight == core::WeightKind::kUnit
                              ? "unweighted (average response time)"
                              : "weighted (average weighted response time)";
  return workload_name + " (" + std::to_string(jobs) + " jobs), " + objective;
}

util::Table failure_table(const GridResult& grid, const std::string& title) {
  util::Table t({"Configuration", "Error", "Attempts", "Message"});
  t.set_title(title);
  for (const RunError& e : grid.failures()) {
    t.add_row({e.scheduler, std::string(to_string(e.kind)),
               std::to_string(e.attempts), e.message});
  }
  return t;
}

std::string failure_summary(const GridResult& grid) {
  const std::size_t failed = grid.failed();
  const std::size_t cells = grid.cells.size();
  std::string out = std::to_string(cells - failed) + "/" +
                    std::to_string(cells) + " cells ok";
  if (failed > 0) {
    // Count failures per kind for the parenthetical, in first-seen order.
    std::vector<std::pair<RunErrorKind, std::size_t>> kinds;
    for (const RunError& e : grid.failures()) {
      bool found = false;
      for (auto& [kind, count] : kinds) {
        if (kind == e.kind) {
          ++count;
          found = true;
        }
      }
      if (!found) kinds.emplace_back(e.kind, 1);
    }
    out += ", " + std::to_string(failed) + " failed (";
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      if (i > 0) out += ", ";
      out += std::string(to_string(kinds[i].first)) + "=" +
             std::to_string(kinds[i].second);
    }
    out += ")";
  }
  if (const std::size_t resumed = grid.resumed(); resumed > 0) {
    out += ", " + std::to_string(resumed) + " resumed from journal";
  }
  if (!grid.journal_note.empty()) out += "; " + grid.journal_note;
  return out;
}

void write_grid_json(const std::string& path, const GridJsonMeta& meta,
                     const std::vector<RunResult>& unweighted,
                     double unweighted_wall,
                     const std::vector<RunResult>& weighted,
                     double weighted_wall) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
    return;
  }
  const auto emit_runs = [f](const char* key,
                             const std::vector<RunResult>& runs, double wall,
                             bool last) {
    std::fprintf(f, "  \"%s\": {\n", key);
    std::fprintf(f, "    \"wall_seconds\": %.2f,\n", wall);
    std::fprintf(f, "    \"configs\": [\n");
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const RunResult& r = runs[i];
      std::fprintf(f,
                   "      {\"scheduler\": \"%s\", "
                   "\"scheduler_cpu_seconds\": %.4f, "
                   "\"schedule_fnv\": \"%016llx\"}%s\n",
                   r.scheduler_name.c_str(), r.scheduler_cpu_seconds,
                   static_cast<unsigned long long>(r.schedule_fnv),
                   i + 1 == runs.size() ? "" : ",");
    }
    std::fprintf(f, "    ]\n");
    std::fprintf(f, "  }%s\n", last ? "" : ",");
  };
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"benchmark\": \"full_grid\",\n");
  std::fprintf(f, "  \"jobs\": %zu,\n", meta.jobs);
  std::fprintf(f, "  \"machine_nodes\": %d,\n", meta.machine_nodes);
  std::fprintf(f, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(meta.seed));
  std::fprintf(f, "  \"threads\": %zu,\n", meta.threads);
  emit_runs("unweighted", unweighted, unweighted_wall, false);
  emit_runs("weighted", weighted, weighted_wall, true);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n\n", path.c_str());
}

}  // namespace jsched::eval
