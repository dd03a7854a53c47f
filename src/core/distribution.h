// pathest: the ordered frequency distribution — the histogram's domain data.
//
// Given exact selectivities f over L_k and an ordering O, the distribution is
// the sequence D[i] = f(O.Unrank(i)) for i in [0, |L_k|). Histograms are
// built over D; everything the paper's Figure 1 plots is one of these.

#ifndef PATHEST_CORE_DISTRIBUTION_H_
#define PATHEST_CORE_DISTRIBUTION_H_

#include <cstdint>
#include <vector>

#include "ordering/ordering.h"
#include "path/selectivity.h"
#include "util/status.h"

namespace pathest {

/// \brief Materializes D[i] = f(O.Unrank(i)) over the ordering's full domain.
///
/// The selectivity map must cover the ordering's space (same label count and
/// k >= the ordering's k).
///
/// Built as a scatter rather than a gather: the ordering's space is walked
/// in canonical order with one RankScratch, and each path's value lands at
/// D[O.Rank(p, scratch)]. That avoids an allocating virtual Unrank plus a
/// map lookup per index, and reads the map sequentially. A path's canonical
/// index depends only on its labels, not on k, so the walk reads the first
/// |L_k| values of a map built at a larger k unchanged. The result equals
/// the Unrank formulation element for element (tests/core_test.cc).
Result<std::vector<uint64_t>> BuildDistribution(
    const SelectivityMap& selectivities, const Ordering& ordering);

/// \brief Summary statistics of a distribution (diagnostics / reports).
struct DistributionProfile {
  uint64_t n = 0;
  uint64_t total = 0;
  uint64_t max_value = 0;
  uint64_t num_zero = 0;
  double mean = 0.0;
  double variance = 0.0;
  /// Sum over adjacent positions of |D[i+1] - D[i]|; lower total variation
  /// means better clustering of similar frequencies (the goal of domain
  /// reordering).
  double total_variation = 0.0;
};

/// \brief Computes the profile in one pass.
DistributionProfile ProfileDistribution(const std::vector<uint64_t>& dist);

}  // namespace pathest

#endif  // PATHEST_CORE_DISTRIBUTION_H_
