// Naive reference for the greedy V-optimal merge (histogram/greedy_merge.cc).
//
// Each step scans every live adjacent pair and merges the one with the
// smallest (ΔSSE, left position), using the same running-sum arithmetic as
// the library engine. O(n · (n − β)): test-sized inputs only. It shares no
// code with the engine, so agreement checks the indexed heap, its in-place
// re-keying and the tie rule.

#ifndef PATHEST_TESTS_ORACLES_GREEDY_MERGE_ORACLE_H_
#define PATHEST_TESTS_ORACLES_GREEDY_MERGE_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "oracles/histogram_oracle.h"

namespace pathest {
namespace oracles {

struct GreedyOracleRun {
  /// Live-bucket level -> the buckets at that level, with the merge's
  /// running sums (not recomputed from the data).
  std::map<size_t, std::vector<Bucket>> levels;
  /// Merges performed down to the smallest requested level.
  size_t merges = 0;
};

inline double OracleSse(const Bucket& b) {
  double w = static_cast<double>(b.end - b.begin);
  return b.sumsq - (b.sum * b.sum) / w;
}

inline double OracleMergeDelta(const Bucket& a, const Bucket& b) {
  double sum = a.sum + b.sum;
  double sumsq = a.sumsq + b.sumsq;
  double w = static_cast<double>(b.end - a.begin);
  double merged_sse = sumsq - (sum * sum) / w;
  return merged_sse - OracleSse(a) - OracleSse(b);
}

/// \brief Merges singletons of `data` down to min(betas) (each level
/// clamped to n), recording the buckets at every requested level.
inline GreedyOracleRun NaiveGreedyMerge(const std::vector<uint64_t>& data,
                                        const std::vector<size_t>& betas) {
  GreedyOracleRun run;
  const size_t n = data.size();
  std::vector<Bucket> live;
  for (size_t i = 0; i < n; ++i) {
    double v = static_cast<double>(data[i]);
    live.push_back(Bucket{i, i + 1, v, v * v});
  }
  size_t lowest = n;
  for (size_t b : betas) lowest = std::min(lowest, std::min(b, n));
  auto record = [&] {
    for (size_t b : betas) {
      if (std::min(b, n) == live.size()) run.levels[live.size()] = live;
    }
  };
  record();
  while (live.size() > lowest) {
    size_t best = 0;
    double best_delta = OracleMergeDelta(live[0], live[1]);
    for (size_t i = 1; i + 1 < live.size(); ++i) {
      double delta = OracleMergeDelta(live[i], live[i + 1]);
      if (delta < best_delta) {  // strict: an exact tie keeps the left pair
        best = i;
        best_delta = delta;
      }
    }
    live[best].end = live[best + 1].end;
    live[best].sum += live[best + 1].sum;
    live[best].sumsq += live[best + 1].sumsq;
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(best) + 1);
    ++run.merges;
    record();
  }
  return run;
}

}  // namespace oracles
}  // namespace pathest

#endif  // PATHEST_TESTS_ORACLES_GREEDY_MERGE_ORACLE_H_
