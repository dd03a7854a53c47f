#include "core/estimator.h"

#include <utility>

namespace pathest {

Estimator::Estimator(const PathHistogram& source)
    : ordering_(&source.ordering()),
      kind_(source.ordering().kind()),
      flat_(source.histogram()) {}

Estimator::Estimator(const Ordering& ordering, const Histogram& histogram)
    : ordering_(&ordering),
      kind_(ordering.kind()),
      flat_(histogram) {
  PATHEST_CHECK(histogram.domain_size() == ordering.size(),
                "histogram domain size does not match ordering domain");
}

Estimator::Estimator(const Ordering& ordering, FlatHistogram flat)
    : ordering_(&ordering),
      kind_(ordering.kind()),
      flat_(std::move(flat)) {
  PATHEST_CHECK(flat_.domain_size() == ordering.size(),
                "flat histogram domain size does not match ordering domain");
}

void Estimator::EstimateBatch(std::span<const LabelPath> paths,
                              std::span<double> out) const {
  PATHEST_CHECK(paths.size() == out.size(),
                "EstimateBatch output span size mismatch");
  RankScratch scratch;
  for (size_t i = 0; i < paths.size(); ++i) {
    out[i] = Estimate(paths[i], scratch);
  }
}

}  // namespace pathest
