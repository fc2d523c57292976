#include "serve/loadgen.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace jsched::serve {

void OpenLoopConfig::validate() const {
  if (rate < 0) throw std::invalid_argument("loadgen: rate must be >= 0");
  if (rate > 0 && horizon == 0 && job_count == 0) {
    throw std::invalid_argument(
        "loadgen: a Poisson stream needs a horizon or a job_count");
  }
  if (!crons.empty() && horizon == 0) {
    throw std::invalid_argument("loadgen: cron templates need a horizon");
  }
  if (rate == 0 && crons.empty()) {
    throw std::invalid_argument("loadgen: no arrival process configured");
  }
  if (nodes_max < 1 || runtime_min < 1 || runtime_max < runtime_min ||
      estimate_factor_max < 1.0) {
    throw std::invalid_argument("loadgen: bad job-shape parameters");
  }
  for (const CronTemplate& c : crons) {
    if (c.period < 1 || c.offset < 0 ||
        invalid_job_field(0, c.nodes, c.runtime, c.estimate, c.user)) {
      throw std::invalid_argument("loadgen: bad cron template");
    }
  }
}

OpenLoopSource::OpenLoopSource(const OpenLoopConfig& config)
    : config_(config), arrivals_(config.seed), shapes_(arrivals_.split()) {
  config_.validate();
  if (config_.rate > 0) {
    next_poisson_ = 0;
    advance_poisson();  // first arrival: one exponential gap from 0
  }
  next_cron_.reserve(config_.crons.size());
  for (const CronTemplate& c : config_.crons) {
    next_cron_.push_back(c.offset < config_.horizon ? c.offset
                                                    : kTimeInfinity);
  }
}

void OpenLoopSource::advance_poisson() {
  if (config_.job_count > 0 && poisson_emitted_ >= config_.job_count) {
    next_poisson_ = kTimeInfinity;
    return;
  }
  poisson_clock_ += arrivals_.exponential(config_.rate);
  const Time t = static_cast<Time>(std::floor(poisson_clock_));
  if (config_.horizon > 0 && t >= config_.horizon) {
    next_poisson_ = kTimeInfinity;
    return;
  }
  next_poisson_ = t;
}

Time OpenLoopSource::next_submit() const {
  Time t = next_poisson_;
  for (Time c : next_cron_) t = std::min(t, c);
  return t;
}

bool OpenLoopSource::poll(Time vnow, std::vector<SubmitRecord>& out) {
  while (true) {
    // Earliest pending arrival across the Poisson stream and every cron.
    Time t = next_poisson_;
    std::size_t cron = next_cron_.size();  // size() = the Poisson stream
    for (std::size_t i = 0; i < next_cron_.size(); ++i) {
      if (next_cron_[i] < t) {
        t = next_cron_[i];
        cron = i;
      }
    }
    if (t == kTimeInfinity || t > vnow) break;

    SubmitRecord r;
    r.submit = t;
    if (cron < next_cron_.size()) {
      const CronTemplate& c = config_.crons[cron];
      r.nodes = c.nodes;
      r.runtime = c.runtime;
      r.estimate = c.estimate;
      r.user = c.user;
      const Time next = next_cron_[cron] + c.period;
      next_cron_[cron] = next < config_.horizon ? next : kTimeInfinity;
    } else {
      // Ad-hoc job: log2-uniform width, log-uniform runtime, padded
      // estimate. Every job consumes the same number of shape draws so
      // the stream is stable under parameter changes.
      const double width_exp = shapes_.uniform(
          0.0, std::log2(static_cast<double>(config_.nodes_max) + 1.0));
      r.nodes = std::clamp(static_cast<int>(std::exp2(width_exp)), 1,
                           config_.nodes_max);
      r.runtime = std::max<Duration>(
          1, static_cast<Duration>(
                 shapes_.log_uniform(static_cast<double>(config_.runtime_min),
                                     static_cast<double>(config_.runtime_max))));
      const double factor = shapes_.uniform(1.0, config_.estimate_factor_max);
      const bool exact = shapes_.bernoulli(config_.exact_estimate_prob);
      r.estimate = exact ? r.runtime
                         : std::max<Duration>(
                               r.runtime,
                               static_cast<Duration>(
                                   static_cast<double>(r.runtime) * factor));
      r.user = static_cast<std::int32_t>(shapes_.uniform_int(0, 15));
      ++poisson_emitted_;
      advance_poisson();
    }
    out.push_back(r);
    ++emitted_;
  }
  return next_submit() != kTimeInfinity;
}

}  // namespace jsched::serve
