// pathest: the label-path histogram — ordering + histogram, the estimator
// the whole library exists to provide (paper Section 2).
//
// Construction: materialize the distribution D[i] = f(Unrank(i)) under the
// chosen ordering, then bucket D with the chosen histogram policy. At query
// time only Rank() and the histogram's begin and sum rows are touched; the full distribution
// is NOT retained — the estimator's memory footprint is the histogram plus
// the ordering's O(1)/O(|L|) state, which is the whole point of the
// exercise.

#ifndef PATHEST_CORE_PATH_HISTOGRAM_H_
#define PATHEST_CORE_PATH_HISTOGRAM_H_

#include <memory>
#include <string>
#include <vector>

#include "histogram/builders.h"
#include "ordering/ordering.h"
#include "path/selectivity.h"
#include "util/status.h"

namespace pathest {

/// \brief A path-selectivity estimator backed by a histogram over an ordered
/// label-path domain.
class PathHistogram {
 public:
  /// \brief Builds a histogram of `num_buckets` buckets of the given type
  /// over the distribution induced by `ordering`.
  ///
  /// \param selectivities exact f over a space covering the ordering's.
  /// \param ordering domain ordering; ownership is shared with the caller's
  ///   OrderingPtr (moved in).
  static Result<PathHistogram> Build(const SelectivityMap& selectivities,
                                     OrderingPtr ordering,
                                     HistogramType histogram_type,
                                     size_t num_buckets);

  /// \brief Assembles an estimator from pre-built parts (deserialization).
  /// The histogram's domain size must equal the ordering's |L_k|.
  static Result<PathHistogram> FromParts(OrderingPtr ordering,
                                         Histogram histogram,
                                         HistogramType histogram_type);

  /// \brief e(ℓ): estimated selectivity of `path`.
  double Estimate(const LabelPath& path) const;

  /// \brief The underlying ordering method.
  const Ordering& ordering() const { return *ordering_; }

  /// \brief The underlying histogram rows.
  const Histogram& histogram() const { return histogram_; }

  /// \brief The construction policy of the underlying histogram.
  HistogramType histogram_type() const { return histogram_type_; }

  /// \brief e over an index RANGE of the ordered domain: estimated total
  /// selectivity of all paths with index in [begin, end).
  double EstimateIndexRange(uint64_t begin, uint64_t end) const {
    return histogram_.EstimateRange(begin, end);
  }

  /// \brief Method name, e.g. "sum-based/v-optimal(437)".
  std::string Describe() const;

 private:
  PathHistogram(OrderingPtr ordering, Histogram histogram,
                HistogramType histogram_type)
      : ordering_(std::move(ordering)),
        histogram_(std::move(histogram)),
        histogram_type_(histogram_type) {}

  OrderingPtr ordering_;
  Histogram histogram_;
  HistogramType histogram_type_;
};

}  // namespace pathest

#endif  // PATHEST_CORE_PATH_HISTOGRAM_H_
