#include "ledger.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <queue>

#include <ctime>

#include <sys/resource.h>

namespace perfbench {
namespace {

// Keeps the probe's result observable to the optimizer.
volatile std::uint64_t g_probe_sink = 0;

}  // namespace

int SpanLog::open(const std::string& name, int parent) {
  const double now = std::chrono::duration<double>(Clock::now() - origin_).count();
  spans_.push_back({name, parent, now, now});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int id) {
  spans_.at(static_cast<std::size_t>(id)).end =
      std::chrono::duration<double>(Clock::now() - origin_).count();
}

bool SpanLog::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                 "\"start_s\": %.9f, \"end_s\": %.9f}%s\n",
                 i, s.name.c_str(), s.parent, s.start, s.end,
                 i + 1 == spans_.size() ? "" : ",");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::fail_gate(const std::string& why) {
  correct_ = false;
  std::printf("GATE FAILED: %s\n", why.c_str());
}

void Report::print() const {
  for (const Metric& m : metrics_) {
    std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct_ ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double probe_seconds() {
  static const std::vector<std::uint32_t> kKeys = [] {
    std::vector<std::uint32_t> v(std::size_t{1} << 18);
    std::uint64_t x = 88172645463325252ull;  // xorshift64
    for (std::uint32_t& e : v) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      e = static_cast<std::uint32_t>(x >> 32);
    }
    return v;
  }();
  const Clock::time_point t0 = Clock::now();
  std::priority_queue<std::uint64_t> heap;
  std::uint64_t acc = 0;
  for (int round = 0; round < 2; ++round) {
    for (const std::uint32_t key : kKeys) {
      heap.push((std::uint64_t{key} << 20) | (acc & 0xfffff));
    }
    while (!heap.empty()) {
      acc += heap.top();
      heap.pop();
    }
  }
  g_probe_sink = acc;
  return seconds_since(t0);
}

void SpeedSampler::sample() {
  const Clock::time_point t0 = Clock::now();
  probes_.push_back(probe_seconds());
  last_ = Clock::now();
  probing_ += std::chrono::duration<double>(last_ - t0).count();
}

void SpeedSampler::sample_every(double seconds) {
  if (seconds_since(last_) >= seconds) sample();
}

double SpeedSampler::mean_probe() const {
  double sum = 0.0;
  for (const double p : probes_) sum += p;
  return sum / static_cast<double>(probes_.size());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mib() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::uint64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

}  // namespace perfbench
