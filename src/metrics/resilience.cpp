#include "metrics/resilience.h"

#include "metrics/streaming.h"

namespace jsched::metrics {

ResilienceReport resilience(const sim::Schedule& s,
                            const workload::Workload& w) {
  if (s.size() == 0) return {};
  return aggregate(s, w).finish().resilience;
}

}  // namespace jsched::metrics
