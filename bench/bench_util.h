// Shared helpers for the paper-table bench binaries.

#ifndef PATHEST_BENCH_BENCH_UTIL_H_
#define PATHEST_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "gen/datasets.h"
#include "graph/graph.h"
#include "path/selectivity.h"
#include "util/logging.h"
#include "util/status.h"
#include "util/timer.h"

namespace pathest {
namespace bench {

// Terminates the process with a message when a Status/Result failed; benches
// have no meaningful recovery path.
inline void DieIf(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "bench failed at %s: %s\n", what,
                 status.ToString().c_str());
    std::exit(1);
  }
}

// Builds a canned dataset at the PATHEST_SCALE env scale (default: the
// paper's full size) and logs its actual shape.
inline Graph BuildBenchDataset(DatasetId id, uint64_t seed = 42) {
  double scale = ScaleFromEnv();
  auto graph = BuildDataset(id, scale, seed);
  DieIf(graph.status(), "dataset generation");
  return std::move(graph).ValueOrDie();
}

// Reads a size_t env override (e.g. PATHEST_KMAX), with default.
inline size_t SizeFromEnv(const char* name, size_t def) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return def;
  char* end = nullptr;
  unsigned long long v = std::strtoull(env, &end, 10);
  if (end == env || v == 0) return def;
  return static_cast<size_t>(v);
}

// The p-quantile of `samples` (0 <= p <= 1) by nearest rank, rounding the
// rank down: the sample at index ⌊p · (n − 1)⌋ once sorted. Sorts
// `samples` in place; 0 when empty.
inline double Percentile(std::vector<double>* samples, double p) {
  if (samples->empty()) return 0.0;
  std::sort(samples->begin(), samples->end());
  const size_t i =
      static_cast<size_t>(p * static_cast<double>(samples->size() - 1));
  return (*samples)[i];
}

// Worker-thread count for selectivity evaluation: PATHEST_THREADS env, or
// 0 = one thread per hardware core (the bench default — benches want the
// fastest build; determinism is unaffected by thread count).
inline size_t ThreadsFromEnv() { return SizeFromEnv("PATHEST_THREADS", 0); }

// Computes exact selectivities with a progress line per root label.
// `num_threads` follows SelectivityOptions semantics (0 = hardware) and
// defaults to the PATHEST_THREADS env override.
inline SelectivityMap ComputeWithProgress(const Graph& graph, size_t k,
                                          const std::string& name,
                                          size_t num_threads = ThreadsFromEnv()) {
  Timer timer;
  SelectivityOptions options;
  options.num_threads = num_threads;
  // Progress callbacks are mutex-serialized by the evaluator, so a plain
  // counter is safe. Count completions rather than echoing the root id:
  // under parallelism roots finish in unspecified order.
  size_t roots_done = 0;
  options.progress = [&](LabelId root) {
    PATHEST_LOG(Info) << name << ": selectivity root " << (root + 1) << " done"
                      << " (" << ++roots_done << "/" << graph.num_labels()
                      << ", " << static_cast<int>(timer.ElapsedSeconds())
                      << "s)";
  };
  auto map = ComputeSelectivities(graph, k, options);
  DieIf(map.status(), "selectivity computation");
  PATHEST_LOG(Info) << name << ": exact selectivities for k=" << k
                    << " computed in " << timer.ElapsedSeconds() << "s";
  return std::move(map).ValueOrDie();
}

}  // namespace bench
}  // namespace pathest

#endif  // PATHEST_BENCH_BENCH_UTIL_H_
