#include "workload/swf.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/journal.h"

namespace jsched::workload {
namespace {

// SWF field indices (0-based) per the Parallel Workloads Archive spec.
constexpr std::size_t kSubmit = 1;
constexpr std::size_t kRunTime = 3;
constexpr std::size_t kAllocProcs = 4;
constexpr std::size_t kReqProcs = 7;
constexpr std::size_t kReqTime = 8;
constexpr std::size_t kStatus = 10;
constexpr std::size_t kUser = 11;
constexpr std::size_t kFieldCount = 18;

JobStatus status_of(std::int64_t code) {
  // Archive codes: 1 completed, 0 failed, 5 cancelled; 2/3/4 mark partial
  // executions and -1 means "not recorded" — both map to kUnknown.
  switch (code) {
    case 1:
      return JobStatus::kCompleted;
    case 0:
      return JobStatus::kFailed;
    case 5:
      return JobStatus::kCancelled;
    default:
      return JobStatus::kUnknown;
  }
}

int status_code(JobStatus status) {
  switch (status) {
    case JobStatus::kCompleted:
      return 1;
    case JobStatus::kFailed:
      return 0;
    case JobStatus::kCancelled:
      return 5;
    case JobStatus::kUnknown:
      break;
  }
  return -1;
}

/// Record one rejected line into the lenient-mode report.
void note_issue(SwfParseReport* report, bool structural, std::size_t line,
                const char* reason, const std::string& text) {
  if (report == nullptr) return;
  if (structural) {
    ++report->malformed;
  } else {
    ++report->out_of_range;
  }
  ++report->reason_counts[reason];
  if (report->samples.size() < SwfParseReport::kMaxSamples) {
    report->samples.push_back({line, reason, text.substr(0, 120)});
  }
}

}  // namespace

std::string SwfParseReport::summary() const {
  std::ostringstream os;
  os << total() << " record" << (total() == 1 ? "" : "s") << " skipped";
  if (!reason_counts.empty()) {
    os << " (";
    bool first = true;
    for (const auto& [reason, count] : reason_counts) {
      if (!first) os << ", ";
      os << reason << "=" << count;
      first = false;
    }
    os << ")";
  }
  return os.str();
}

namespace detail {

SwfLineParser::SwfLineParser(const SwfOptions& options, SwfReadStats& stats)
    : options_(options),
      st_(&stats),
      report_(options.lenient ? options.report : nullptr) {
  *st_ = {};
  if (report_ != nullptr) *report_ = {};
}

bool SwfLineParser::parse(const std::string& line, Job& out) {
  SwfReadStats& st = *st_;
  ++st.lines;
  // Strip UTF-8 BOM / leading whitespace.
  std::size_t first = line.find_first_not_of(" \t\r");
  if (first == std::string::npos) return false;
  if (line[first] == ';') {
    ++st.comments;
    return false;
  }

  std::istringstream fields(line);
  std::array<double, kFieldCount> f;
  f.fill(-1.0);
  std::size_t n = 0;
  double v;
  while (n < kFieldCount && fields >> v) f[n++] = v;
  if (n < kReqTime + 1) {
    // Too few numeric fields: either the line is short, or extraction
    // died on non-numeric junk mid-record.
    fields.clear();
    std::string rest;
    fields >> rest;
    const char* reason = rest.empty() ? "short-record" : "non-numeric-field";
    if (!options_.lenient) {
      throw std::runtime_error("SWF: malformed record at line " +
                               std::to_string(st.lines) + ": " + line);
    }
    ++st.skipped_malformed;
    note_issue(report_, /*structural=*/true, st.lines, reason, line);
    return false;
  }
  const auto reject = [&](const char* reason) {
    if (!options_.lenient) {
      throw std::runtime_error("SWF: " + std::string(reason) + " at line " +
                               std::to_string(st.lines) + ": " + line);
    }
    ++st.skipped_malformed;
    note_issue(report_, /*structural=*/false, st.lines, reason, line);
    return false;
  };
  // Read every field a job takes as an int64 (truncated toward zero)
  // before anything narrows it. A double that is not finite or lies outside
  // int64 would make that cast undefined behavior, so it is rejected first.
  constexpr std::size_t kUsed[] = {kSubmit, kRunTime, kAllocProcs, kReqProcs,
                                   kReqTime, kStatus, kUser};
  std::array<std::int64_t, kFieldCount> num{};
  for (const std::size_t k : kUsed) {
    if (!std::isfinite(f[k])) return reject("non-finite-field");
    if (f[k] < -0x1p63 || f[k] >= 0x1p63) return reject("out-of-range-field");
    num[k] = static_cast<std::int64_t>(f[k]);
  }
  // SWF writes -1 for a missing field: a record without a submit time,
  // processor count or runtime is skipped, not malformed.
  const std::int64_t procs =
      num[kReqProcs] > 0 ? num[kReqProcs] : num[kAllocProcs];
  const std::int64_t runtime = num[kRunTime];
  if (procs <= 0 || runtime <= 0 || num[kSubmit] < 0) {
    ++st.skipped_invalid;
    return false;
  }
  const std::int64_t estimate = num[kReqTime] > 0 ? num[kReqTime] : runtime;
  const std::int64_t user = num[kUser] > 0 ? num[kUser] : 0;
  if (invalid_job_field(num[kSubmit], procs, runtime,
                        std::max(estimate, runtime), user)) {
    return reject("out-of-range-field");
  }

  Job j;
  j.status = status_of(num[kStatus]);
  if (options_.drop_unsuccessful && j.status != JobStatus::kCompleted) {
    ++st.skipped_unsuccessful;
    return false;
  }
  j.submit = num[kSubmit];
  j.nodes = static_cast<int>(procs);
  j.runtime = runtime;
  j.estimate = estimate;
  if (j.estimate < j.runtime) {
    // Archive traces contain jobs that overran their limit and were (or
    // should have been) killed; model them as running to the limit.
    j.estimate = j.runtime;
    ++st.clamped_estimate;
  }
  j.user = static_cast<std::int32_t>(user);
  out = j;
  ++st.accepted;
  return true;
}

}  // namespace detail

Workload read_swf(std::istream& in, std::string name, SwfReadStats* stats,
                  const SwfOptions& options) {
  SwfReadStats local;
  detail::SwfLineParser parser(options, stats ? *stats : local);

  Workload w;
  w.reserve(options.reserve_hint);
  std::string line;
  Job j;
  while (std::getline(in, line)) {
    if (parser.parse(line, j)) w.add(j);
  }
  w.set_name(std::move(name));
  w.finalize();
  return w;
}

Workload read_swf_file(const std::string& path, SwfReadStats* stats,
                       const SwfOptions& options) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open SWF file: " + path);
  SwfOptions opts = options;
  if (opts.reserve_hint == 0) {
    // Reserve from the file size: archive records run ~60-120 bytes, so
    // size/64 over-reserves slightly rather than growth-copying a
    // multi-million-job vector several times.
    in.seekg(0, std::ios::end);
    const auto bytes = in.tellg();
    in.seekg(0, std::ios::beg);
    if (bytes > 0) {
      opts.reserve_hint = static_cast<std::size_t>(bytes) / 64;
    }
  }
  return read_swf(in, path, stats, opts);
}

SwfJobSource::SwfJobSource(const std::string& path, const SwfOptions& options,
                           SwfReadStats* stats)
    : in_(path),
      st_(stats ? stats : &local_stats_),
      parser_(options, *st_),
      name_(path) {
  if (!in_) throw std::runtime_error("cannot open SWF file: " + path);
}

bool SwfJobSource::next(Job& out) {
  Job j;
  while (std::getline(in_, line_)) {
    if (!parser_.parse(line_, j)) continue;
    if (j.submit < prev_raw_submit_) {
      throw std::runtime_error(
          "SwfJobSource: record at line " + std::to_string(st_->lines) +
          " is out of submit order; streaming needs a sorted trace "
          "(read_swf_file sorts in memory)");
    }
    prev_raw_submit_ = j.submit;
    stamp(j);
    out = j;
    return true;
  }
  return false;
}

void write_swf(std::ostream& out, const Workload& w) {
  out << "; SWF written by jsched\n"
      << "; MaxProcs: " << w.max_nodes() << "\n"
      << "; Jobs: " << w.size() << "\n";
  util::BufferedWriter buf(out);
  for (const auto& j : w) {
    // job submit wait run alloc cpu mem reqproc reqtime reqmem status user
    // group app queue part prev think
    buf.append_int(static_cast<std::int64_t>(j.id) + 1);
    buf.append(' ');
    buf.append_int(j.submit);
    buf.append(" -1 ");
    buf.append_int(j.runtime);
    buf.append(' ');
    buf.append_int(j.nodes);
    buf.append(" -1 -1 ");
    buf.append_int(j.nodes);
    buf.append(' ');
    buf.append_int(j.estimate);
    buf.append(" -1 ");
    buf.append_int(status_code(j.status));
    buf.append(' ');
    buf.append_int(j.user);
    buf.append(" -1 -1 -1 -1 -1 -1\n");
  }
}

void write_swf_file(const std::string& path, const Workload& w) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open SWF file for write: " + path);
  write_swf(out, w);
}

}  // namespace jsched::workload
