#include "core/path_histogram.h"

#include "core/distribution.h"

namespace pathest {

Result<PathHistogram> PathHistogram::Build(const SelectivityMap& selectivities,
                                           OrderingPtr ordering,
                                           HistogramType histogram_type,
                                           size_t num_buckets) {
  if (ordering == nullptr) {
    return Status::InvalidArgument("null ordering");
  }
  auto dist = BuildDistribution(selectivities, *ordering);
  if (!dist.ok()) return dist.status();
  auto histogram = BuildHistogram(histogram_type, *dist, num_buckets);
  if (!histogram.ok()) return histogram.status();
  return PathHistogram(std::move(ordering), std::move(*histogram),
                       histogram_type);
}

Result<PathHistogram> PathHistogram::FromParts(OrderingPtr ordering,
                                               Histogram histogram,
                                               HistogramType histogram_type) {
  if (ordering == nullptr) return Status::InvalidArgument("null ordering");
  if (histogram.domain_size() != ordering->size()) {
    return Status::InvalidArgument(
        "histogram domain size " + std::to_string(histogram.domain_size()) +
        " does not match ordering domain " + std::to_string(ordering->size()));
  }
  return PathHistogram(std::move(ordering), std::move(histogram),
                       histogram_type);
}

double PathHistogram::Estimate(const LabelPath& path) const {
  return histogram_.EstimatePoint(ordering_->Rank(path));
}

std::string PathHistogram::Describe() const {
  return ordering_->name() + "/" + HistogramTypeName(histogram_type_) + "(" +
         std::to_string(histogram_.num_buckets()) + ")";
}

}  // namespace pathest
