// One-shot parallel loop for embarrassingly parallel evaluation sweeps.
//
// The paper's methodology runs a 13-configuration algorithm grid over
// several workloads and seeds; every (spec, seed) simulation is
// independent, so the eval layer fans them out here. Each call starts its
// own threads, which pull indices from one shared counter, and joins them
// all before returning. There is no work stealing: every task is a
// multi-second simulation and counter contention is noise.
#pragma once

#include <cstddef>
#include <functional>

namespace jsched::util {

struct ParallelOptions {
  /// After the first task failure, stop handing out new indices: tasks
  /// already in flight drain normally (they are never abandoned), but
  /// indices not yet started are skipped. Off (the default) runs every
  /// index to completion.
  bool stop_on_error = false;
};

/// Run fn(0), ..., fn(n-1) and return when all are done. `threads <= 1`
/// runs inline on the calling thread in index order (stop_on_error is then
/// implicit: the first exception propagates directly). Otherwise
/// min(threads, n) threads pull indices in order, which may complete in
/// any order; the caller owns result placement (typically out[i] = ...).
/// If any call throws, the first exception (by completion order) is
/// rethrown after every thread has joined. When further calls threw too,
/// the rethrown error is a std::runtime_error carrying the first failure's
/// message plus the count of suppressed exceptions — secondary failures
/// are counted, never silently lost.
void parallel_for_each(std::size_t n, std::size_t threads,
                       const std::function<void(std::size_t)>& fn,
                       const ParallelOptions& options = {});

/// std::thread::hardware_concurrency with a floor of 1.
std::size_t hardware_threads();

}  // namespace jsched::util
