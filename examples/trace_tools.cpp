// Trace tooling: generate, inspect, convert and resample workloads.
//
//   ./trace_tools gen-ctc <out.swf> [jobs]      write a CTC-like trace
//   ./trace_tools info <trace.swf>              summary statistics
//   ./trace_tools fit <trace.swf>               Weibull fit + histograms
//   ./trace_tools resample <in.swf> <out.swf> <jobs> [seed]
//                                               the §6.2 probability-
//                                               distribution workload
//   ./trace_tools trim <in.swf> <out.swf> <nodes>
//                                               the §6.1 machine trim
//
// Any SWF trace from the Parallel Workloads Archive (e.g. the real
// CTC SP2 trace the paper uses) can be dropped in. A count or seed that is
// not wholly a number in range prints the usage and exits 2.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>

#include "util/number.h"
#include "util/table.h"
#include "workload/ctc_model.h"
#include "workload/stats_model.h"
#include "workload/swf.h"
#include "workload/transforms.h"
#include "workload/workload.h"

using namespace jsched;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  trace_tools gen-ctc <out.swf> [jobs]\n"
               "  trace_tools info <trace.swf>\n"
               "  trace_tools fit <trace.swf>\n"
               "  trace_tools resample <in.swf> <out.swf> <jobs> [seed]\n"
               "  trace_tools trim <in.swf> <out.swf> <nodes>\n");
  return 2;
}

int cmd_gen_ctc(int argc, char** argv) {
  if (argc < 3) return usage();
  workload::CtcModelParams p;
  if (argc > 3 && !util::parse_number(argv[3], p.job_count)) return usage();
  const auto w = workload::generate_ctc(p, 19990412);
  workload::write_swf_file(argv[2], w);
  std::printf("wrote %zu jobs to %s\n", w.size(), argv[2]);
  return 0;
}

int cmd_info(int argc, char** argv) {
  if (argc < 3) return usage();
  workload::SwfReadStats stats;
  const auto w = workload::read_swf_file(argv[2], &stats);
  std::printf("%s: %zu lines, %zu comments, %zu accepted, %zu skipped, "
              "%zu estimates clamped\n",
              argv[2], stats.lines, stats.comments, stats.accepted,
              stats.skipped_invalid, stats.clamped_estimate);
  std::fputs(workload::describe(workload::summarize(w)).c_str(), stdout);
  return 0;
}

int cmd_fit(int argc, char** argv) {
  if (argc < 3) return usage();
  const auto w = workload::read_swf_file(argv[2]);
  const auto st = workload::WorkloadStatistics::extract(w);
  std::printf("inter-arrival Weibull fit: shape %.4f, scale %.2f s\n",
              st.interarrival_fit().shape, st.interarrival_fit().scale);
  std::printf("requested-time bins: %zu\n", st.estimate_bin_count());

  util::Table t({"nodes", "probability"});
  t.set_title("node-count distribution (top 10)");
  std::vector<std::pair<double, int>> probs;
  for (int n = 1; n <= st.max_nodes(); ++n) {
    probs.emplace_back(st.node_probability(n), n);
  }
  std::sort(probs.rbegin(), probs.rend());
  for (std::size_t i = 0; i < probs.size() && i < 10; ++i) {
    t.add_row({std::to_string(probs[i].second),
               util::fixed(100.0 * probs[i].first, 2) + "%"});
  }
  std::printf("%s", t.to_ascii().c_str());
  return 0;
}

int cmd_resample(int argc, char** argv) {
  std::size_t jobs = 0;
  std::uint64_t seed = 1;
  if (argc < 5 || !util::parse_number(argv[4], jobs) ||
      (argc > 5 && !util::parse_number(argv[5], seed))) {
    return usage();
  }
  const auto source = workload::read_swf_file(argv[2]);
  const auto sampled = workload::generate_probabilistic(source, jobs, seed);
  workload::write_swf_file(argv[3], sampled);
  std::printf("resampled %zu jobs from %s into %s\n", sampled.size(), argv[2],
              argv[3]);
  return 0;
}

int cmd_trim(int argc, char** argv) {
  int nodes = 0;
  if (argc < 5 || !util::parse_number(argv[4], nodes)) return usage();
  const auto w = workload::read_swf_file(argv[2]);
  std::size_t dropped = 0;
  const auto trimmed = workload::trim_to_machine(w, nodes, &dropped);
  workload::write_swf_file(argv[3], trimmed);
  std::printf("dropped %zu of %zu jobs wider than %s nodes; wrote %s\n",
              dropped, w.size(), argv[4], argv[3]);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "gen-ctc") return cmd_gen_ctc(argc, argv);
    if (cmd == "info") return cmd_info(argc, argv);
    if (cmd == "fit") return cmd_fit(argc, argv);
    if (cmd == "resample") return cmd_resample(argc, argv);
    if (cmd == "trim") return cmd_trim(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
