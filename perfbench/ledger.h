// Bench-side measurement plumbing: per-boundary tallies for the traced
// run, a span log kept in memory and written out at exit, and the metric
// report whose last line is the benchmark's JSON result.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds this process has used so far (all threads).
double cpu_seconds();

/// Seconds a fixed bench-side computation takes right now: a probe of the
/// machine's current speed that does not depend on the program under test
/// (a priority queue over a fixed 1 MiB array, the simulator's own
/// dominant access pattern; about 0.1 s).
double probe_seconds();

/// The probe's typical time on an uncontended 4-vCPU Xeon VM. Times
/// "at reference speed" are measured times scaled by this over the mean
/// probe time sampled while they ran, so a machine whose speed drifts by
/// phases (as shared VMs do) reports the program's cost, not the drift.
inline constexpr double kProbeReference = 0.1;

/// Probes the machine's speed while a measured call runs. The call's
/// hooks (eval's on_run, a forwarding RecordSink, serve's poll_signal)
/// call sample() or sample_every(); the time spent probing is excluded
/// from the call's wall, and the mean probe time rescales that wall to
/// reference speed.
class SpeedSampler {
 public:
  void sample();
  /// Samples when at least `seconds` have passed since the last sample.
  void sample_every(double seconds);
  /// Mean probe time over every sample so far.
  double mean_probe() const;
  /// Seconds spent probing so far.
  double probing() const noexcept { return probing_; }
  std::size_t samples() const noexcept { return probes_.size(); }

 private:
  std::vector<double> probes_;
  double probing_ = 0.0;  // seconds spent in sample()
  Clock::time_point last_ = Clock::now();
};

/// Time spent in, and calls made through, one layer boundary.
struct Tally {
  double seconds = 0.0;
  std::uint64_t calls = 0;
};

/// Charges the enclosing scope's wall time and one call to a Tally.
class Timed {
 public:
  explicit Timed(Tally& tally) : tally_(tally), t0_(Clock::now()) {}
  ~Timed() {
    tally_.seconds += seconds_since(t0_);
    ++tally_.calls;
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Tally& tally_;
  Clock::time_point t0_;
};

/// Coarse spans (setup phases, grid cells, serve runs) with their parent,
/// kept in memory while the benchmark runs and written as JSON at exit.
/// Hot per-call boundaries go to Tally instead: one span per job would
/// cost more memory than the run being measured.
class SpanLog {
 public:
  /// Opens a span and returns its id; `parent` is -1 for a root span.
  int open(const std::string& name, int parent = -1);
  /// Closes span `id`.
  void close(int id);
  /// Writes every span as a JSON array to `path`; false when unwritable.
  bool write_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int parent;
    double start;
    double end;
  };
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Ordered metric list printed as the benchmark's result line.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// Marks the run incorrect and prints `why` (gate failures).
  void fail_gate(const std::string& why);
  void note_attempted(std::uint64_t n) { attempted_ += n; }
  void note_failed(std::uint64_t n) { failed_ += n; }

  bool correct() const noexcept { return correct_; }
  /// Prints every metric by name and unit, then the JSON result line.
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> v);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mib();

/// Size of a file in bytes (0 when missing).
std::uint64_t file_bytes(const std::string& path);

}  // namespace perfbench
