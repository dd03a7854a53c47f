// Reference for the histogram lookup (histogram/histogram.h).
//
// The library keeps a histogram as begin and sum rows and finds a bucket
// by a branchless predecessor search over the begin row. This oracle keeps
// the same buckets as (begin, end, sum, sumsq) records and finds one the
// plain way: std::upper_bound for the first bucket whose end exceeds the
// index. Point estimates are the bucket mean, range estimates the pro-rata
// walk over the overlapped buckets in order — the arithmetic the library
// must reproduce bit for bit. It shares no lookup code with the library,
// so agreement checks the search, the end derivation and the range walk.
// The library stores no sum of squares; given the data, the oracle
// accumulates its own per record, so its SSE checks the free TotalSse.

#ifndef PATHEST_TESTS_ORACLES_HISTOGRAM_ORACLE_H_
#define PATHEST_TESTS_ORACLES_HISTOGRAM_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "histogram/histogram.h"
#include "util/status.h"

namespace pathest {
namespace oracles {

/// \brief One histogram bucket over domain range [begin, end).
struct Bucket {
  uint64_t begin = 0;
  uint64_t end = 0;
  /// Sum of frequencies in the range.
  double sum = 0.0;
  /// Sum of squared frequencies.
  double sumsq = 0.0;

  uint64_t width() const { return end - begin; }
  double Mean() const { return width() == 0 ? 0.0 : sum / width(); }
  /// Within-bucket sum of squared errors around the mean.
  double Sse() const {
    return width() == 0 ? 0.0 : sumsq - (sum * sum) / width();
  }
};

/// \brief Accumulates (sum, sumsq) over data[begin, end).
inline Bucket MakeBucket(const std::vector<uint64_t>& data, uint64_t begin,
                         uint64_t end) {
  Bucket b;
  b.begin = begin;
  b.end = end;
  for (uint64_t i = begin; i < end; ++i) {
    const double v = static_cast<double>(data[i]);
    b.sum += v;
    b.sumsq += v * v;
  }
  return b;
}

/// \brief The bucket records of `h`, bucket b ending where b + 1 begins
/// and the last at the domain size. Each sumsq is accumulated from `data`
/// when it is given (data.size() == h.domain_size()), else left 0.
inline std::vector<Bucket> BucketsOf(const Histogram& h,
                                     const std::vector<uint64_t>& data = {}) {
  PATHEST_CHECK(data.empty() || data.size() == h.domain_size(),
                "oracle data does not match the histogram domain");
  std::vector<Bucket> buckets(h.num_buckets());
  for (size_t b = 0; b < buckets.size(); ++b) {
    buckets[b].begin = h.begins()[b];
    buckets[b].end =
        b + 1 < buckets.size() ? h.begins()[b + 1] : h.domain_size();
    buckets[b].sum = h.sums()[b];
    if (!data.empty()) {
      buckets[b].sumsq =
          MakeBucket(data, buckets[b].begin, buckets[b].end).sumsq;
    }
  }
  return buckets;
}

/// \brief Array-of-records histogram with the upper_bound lookup.
class HistogramOracle {
 public:
  /// With `data`, the records carry their sums of squares and TotalSse
  /// is the V-optimal objective; without, it is meaningless.
  explicit HistogramOracle(const Histogram& h,
                           const std::vector<uint64_t>& data = {})
      : buckets_(BucketsOf(h, data)) {}

  const std::vector<Bucket>& buckets() const { return buckets_; }
  uint64_t domain_size() const { return buckets_.back().end; }

  /// \brief The bucket containing `index` (< domain_size()).
  const Bucket& BucketFor(uint64_t index) const {
    PATHEST_CHECK(index < domain_size(), "oracle index out of range");
    return *FirstEndingAfter(index);
  }

  double Estimate(uint64_t index) const { return BucketFor(index).Mean(); }

  /// \brief Estimated frequency mass over [begin, end): every overlapped
  /// bucket's mean times its overlap, in bucket order.
  double EstimateRange(uint64_t begin, uint64_t end) const {
    PATHEST_CHECK(begin <= end && end <= domain_size(),
                  "oracle range out of domain");
    if (begin == end) return 0.0;
    double total = 0.0;
    for (auto it = FirstEndingAfter(begin);
         it != buckets_.end() && it->begin < end; ++it) {
      const uint64_t lo = std::max(begin, it->begin);
      const uint64_t hi = std::min(end, it->end);
      total += it->Mean() * static_cast<double>(hi - lo);
    }
    return total;
  }

  double TotalSse() const {
    double total = 0.0;
    for (const Bucket& b : buckets_) total += b.Sse();
    return total;
  }

 private:
  std::vector<Bucket>::const_iterator FirstEndingAfter(uint64_t index) const {
    return std::upper_bound(
        buckets_.begin(), buckets_.end(), index,
        [](uint64_t value, const Bucket& b) { return value < b.end; });
  }

  std::vector<Bucket> buckets_;
};

}  // namespace oracles
}  // namespace pathest

#endif  // PATHEST_TESTS_ORACLES_HISTOGRAM_ORACLE_H_
