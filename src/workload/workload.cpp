#include "workload/workload.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/table.h"
#include "util/timefmt.h"

namespace jsched::workload {

Workload::Workload(std::vector<Job> jobs, std::string name)
    : jobs_(std::move(jobs)), name_(std::move(name)) {
  finalize();
}

void Workload::add(Job j) {
  j.id = static_cast<JobId>(jobs_.size());
  jobs_.push_back(j);
}

void Workload::finalize() {
  std::stable_sort(jobs_.begin(), jobs_.end(),
                   [](const Job& a, const Job& b) { return a.submit < b.submit; });
  if (!jobs_.empty()) {
    const Time origin = jobs_.front().submit;
    for (auto& j : jobs_) j.submit -= origin;
  }
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    jobs_[i].id = static_cast<JobId>(i);
  }
  validate();
}

void Workload::validate() const {
  Time prev = 0;
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const Job& j = jobs_[i];
    const auto fail = [i](const std::string& what) {
      throw std::invalid_argument("Workload: job " + std::to_string(i) + what);
    };
    if (j.id != i) fail(" has id " + std::to_string(j.id));
    if (j.submit < prev) fail(" submitted before its predecessor");
    if (const auto field = invalid_job_field(j)) {
      fail(std::string(" has an invalid ") + field_name(*field) + " field");
    }
    prev = j.submit;
  }
}

int Workload::max_nodes() const noexcept {
  int m = 0;
  for (const auto& j : jobs_) m = std::max(m, j.nodes);
  return m;
}

Time Workload::span() const noexcept {
  return jobs_.empty() ? 0 : jobs_.back().submit;
}

double Workload::total_area() const noexcept {
  double a = 0.0;
  for (const auto& j : jobs_) a += j.area();
  return a;
}

double WorkloadSummary::offered_load(int machine_nodes) const noexcept {
  if (machine_nodes <= 0 || span <= 0) return 0.0;
  return total_area /
         (static_cast<double>(machine_nodes) * static_cast<double>(span));
}

void SummaryAccumulator::add(const Job& j) noexcept {
  if (s_.job_count > 0) {
    s_.interarrival.add(static_cast<double>(j.submit - prev_submit_));
  }
  prev_submit_ = j.submit;
  ++s_.job_count;
  s_.span = j.submit;  // stream is submit-ordered: the last submit wins
  s_.max_nodes = std::max(s_.max_nodes, j.nodes);
  s_.nodes.add(static_cast<double>(j.nodes));
  s_.runtime.add(static_cast<double>(j.runtime));
  s_.estimate.add(static_cast<double>(j.estimate));
  s_.overestimate_factor.add(static_cast<double>(j.estimate) /
                             static_cast<double>(j.runtime));
  s_.total_area += j.area();
}

WorkloadSummary summarize(const Workload& w) { return w.summary(); }

WorkloadSummary Workload::summary() const {
  SummaryAccumulator acc;
  for (const auto& j : jobs_) acc.add(j);
  return acc.summary();
}

std::string describe(const WorkloadSummary& s) {
  std::ostringstream os;
  os << "jobs:               " << s.job_count << "\n"
     << "span:               " << util::format_duration(s.span) << "\n"
     << "mean interarrival:  " << util::fixed(s.interarrival.mean(), 1) << " s\n"
     << "nodes (mean/max):   " << util::fixed(s.nodes.mean(), 1) << " / "
     << util::fixed(s.nodes.max(), 0) << "\n"
     << "runtime (mean/max): " << util::fixed(s.runtime.mean(), 1) << " s / "
     << util::format_duration(static_cast<Duration>(s.runtime.max())) << "\n"
     << "estimate (mean):    " << util::fixed(s.estimate.mean(), 1) << " s\n"
     << "overestimation:     x" << util::fixed(s.overestimate_factor.mean(), 2)
     << " (mean estimate/runtime)\n"
     << "total area:         " << util::sci(s.total_area) << " node-seconds\n";
  return os.str();
}

void FingerprintAccumulator::add(const Job& j) noexcept {
  std::uint64_t h = h_;
  const auto mix = [&h](std::int64_t v) {
    h = util::fnv1a_mix(h, static_cast<std::uint64_t>(v));
  };
  mix(j.submit);
  mix(j.nodes);
  mix(j.runtime);
  mix(j.estimate);
  mix(j.user);
  mix(j.priority_class);
  mix(static_cast<std::int8_t>(j.status));
  h_ = h;
  ++n_;
}

std::uint64_t FingerprintAccumulator::value() const noexcept {
  return util::fnv1a_mix(h_, n_);
}

std::uint64_t fingerprint(const Workload& w) {
  FingerprintAccumulator acc;
  for (const Job& j : w) acc.add(j);
  return acc.value();
}

}  // namespace jsched::workload
