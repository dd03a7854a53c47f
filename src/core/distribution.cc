#include "core/distribution.h"

#include <cmath>

namespace pathest {

Result<std::vector<uint64_t>> BuildDistribution(
    const SelectivityMap& selectivities, const Ordering& ordering) {
  const PathSpace& target = ordering.space();
  const PathSpace& source = selectivities.space();
  if (source.num_labels() != target.num_labels()) {
    return Status::InvalidArgument(
        "selectivity map and ordering use different label sets");
  }
  if (source.k() < target.k()) {
    return Status::InvalidArgument(
        "selectivity map covers k=" + std::to_string(source.k()) +
        " but ordering needs k=" + std::to_string(target.k()));
  }
  // Scatter in canonical order (see distribution.h): the first
  // target.size() values of the map are the target space's paths.
  const std::vector<uint64_t>& values = selectivities.values();
  std::vector<uint64_t> dist(target.size());
  RankScratch scratch;
  uint64_t canonical = 0;
  target.ForEach([&](const LabelPath& path) {
    dist[ordering.Rank(path, scratch)] = values[canonical++];
  });
  return dist;
}

DistributionProfile ProfileDistribution(const std::vector<uint64_t>& dist) {
  DistributionProfile profile;
  profile.n = dist.size();
  if (dist.empty()) return profile;
  double sum = 0.0;
  double sumsq = 0.0;
  for (size_t i = 0; i < dist.size(); ++i) {
    uint64_t v = dist[i];
    profile.total += v;
    profile.max_value = std::max(profile.max_value, v);
    profile.num_zero += (v == 0);
    sum += static_cast<double>(v);
    sumsq += static_cast<double>(v) * static_cast<double>(v);
    if (i > 0) {
      profile.total_variation +=
          std::abs(static_cast<double>(v) - static_cast<double>(dist[i - 1]));
    }
  }
  double n = static_cast<double>(dist.size());
  profile.mean = sum / n;
  profile.variance = sumsq / n - profile.mean * profile.mean;
  return profile;
}

}  // namespace pathest
