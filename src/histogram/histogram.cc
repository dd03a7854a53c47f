#include "histogram/histogram.h"

#include <algorithm>
#include <cmath>

namespace pathest {

Bucket MakeBucket(const std::vector<uint64_t>& data, uint64_t begin,
                  uint64_t end) {
  Bucket b;
  b.begin = begin;
  b.end = end;
  for (uint64_t i = begin; i < end; ++i) {
    double v = static_cast<double>(data[i]);
    b.sum += v;
    b.sumsq += v * v;
  }
  return b;
}

Result<Histogram> Histogram::FromBoundaries(const std::vector<uint64_t>& data,
                                            std::vector<uint64_t> boundaries) {
  if (data.empty()) return Status::InvalidArgument("empty histogram domain");
  const uint64_t n = data.size();
  uint64_t prev = 0;
  std::vector<Bucket> buckets;
  buckets.reserve(boundaries.size() + 1);
  for (uint64_t b : boundaries) {
    if (b <= prev || b >= n) {
      return Status::InvalidArgument(
          "histogram boundaries must be strictly increasing within (0, n)");
    }
    buckets.push_back(MakeBucket(data, prev, b));
    prev = b;
  }
  buckets.push_back(MakeBucket(data, prev, n));
  return Histogram(std::move(buckets));
}

Result<Histogram> Histogram::FromBuckets(std::vector<Bucket> buckets) {
  if (buckets.empty()) {
    return Status::InvalidArgument("histogram needs at least one bucket");
  }
  uint64_t expected_begin = 0;
  for (const Bucket& b : buckets) {
    if (b.begin != expected_begin || b.end <= b.begin) {
      return Status::InvalidArgument(
          "buckets must be contiguous, non-empty, and start at 0");
    }
    // Frequencies are counts: NaN and +/-inf are as corrupt as a negative.
    if (!(std::isfinite(b.sum) && b.sum >= 0.0 && std::isfinite(b.sumsq) &&
          b.sumsq >= 0.0)) {
      return Status::InvalidArgument(
          "bucket sums must be finite and non-negative");
    }
    expected_begin = b.end;
  }
  return Histogram(std::move(buckets));
}

const Bucket& Histogram::BucketFor(uint64_t index) const {
  PATHEST_CHECK(index < domain_size(), "estimate index out of range");
  // First bucket whose end exceeds index.
  auto it = std::upper_bound(
      buckets_.begin(), buckets_.end(), index,
      [](uint64_t value, const Bucket& b) { return value < b.end; });
  return *it;
}

double Histogram::Estimate(uint64_t index) const {
  return BucketFor(index).Mean();
}

double Histogram::EstimateRange(uint64_t begin, uint64_t end) const {
  PATHEST_CHECK(begin <= end, "range begin must be <= end");
  PATHEST_CHECK(end <= domain_size(), "range end out of domain");
  if (begin == end) return 0.0;
  // First bucket overlapping the range.
  auto it = std::upper_bound(
      buckets_.begin(), buckets_.end(), begin,
      [](uint64_t value, const Bucket& b) { return value < b.end; });
  double total = 0.0;
  for (; it != buckets_.end() && it->begin < end; ++it) {
    uint64_t lo = std::max(begin, it->begin);
    uint64_t hi = std::min(end, it->end);
    total += it->Mean() * static_cast<double>(hi - lo);
  }
  return total;
}

double Histogram::TotalSse() const {
  double total = 0.0;
  for (const Bucket& b : buckets_) total += b.Sse();
  return total;
}

}  // namespace pathest
