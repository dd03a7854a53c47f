// pathest: serial histograms over an ordered frequency domain.
//
// A histogram partitions the domain [0, n) — the ordered label-path indexes —
// into β contiguous buckets and stores, per bucket, the frequency sum (and
// sum of squares, for variance diagnostics). The point estimate for a domain
// position is its bucket's mean frequency, the standard uniform-frequency
// assumption for serial histograms.
//
// Histogram is the BUILD/diagnostic representation: an array of full Bucket
// structs (begin, end, sum, sumsq — 32 bytes each) that builders, SSE
// accounting, and serialization traffic in. The QUERY side never reads
// sumsq; the serving path projects a Histogram into the structure-of-arrays
// FlatHistogram (histogram/flat_histogram.h): begin[] / sum[] rows. Its
// point lookup is a branchless predecessor search over the sorted 8-byte
// begin[] row instead of BucketFor's branching std::upper_bound over
// 32-byte Buckets (95 ns against 16 ns per lookup at β = 874 in
// bench_micro_estimation's lookup rows), followed by the same mean
// division. Point and range estimates from the two are bit-identical.

#ifndef PATHEST_HISTOGRAM_HISTOGRAM_H_
#define PATHEST_HISTOGRAM_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace pathest {

/// \brief One histogram bucket over domain range [begin, end).
struct Bucket {
  uint64_t begin = 0;
  uint64_t end = 0;
  /// Sum of frequencies in the range.
  double sum = 0.0;
  /// Sum of squared frequencies (enables SSE computation).
  double sumsq = 0.0;

  uint64_t width() const { return end - begin; }
  double Mean() const { return width() == 0 ? 0.0 : sum / width(); }
  /// Within-bucket sum of squared errors around the mean.
  double Sse() const {
    return width() == 0 ? 0.0 : sumsq - (sum * sum) / width();
  }
};

/// \brief Immutable bucket sequence with O(log β) point estimation.
class Histogram {
 public:
  /// \brief Builds from explicit inner boundaries over `data`.
  /// `boundaries` are the begin positions of buckets 2..β, strictly
  /// increasing within (0, n).
  static Result<Histogram> FromBoundaries(const std::vector<uint64_t>& data,
                                          std::vector<uint64_t> boundaries);

  /// \brief Rebuilds from already-aggregated buckets (the deserialization
  /// path). Buckets must be non-empty, contiguous, and start at 0.
  static Result<Histogram> FromBuckets(std::vector<Bucket> buckets);

  /// \brief Number of buckets β.
  size_t num_buckets() const { return buckets_.size(); }

  /// \brief Domain size n.
  uint64_t domain_size() const {
    return buckets_.empty() ? 0 : buckets_.back().end;
  }

  /// \brief Estimated frequency at domain position `index` (< domain_size).
  double Estimate(uint64_t index) const;

  /// \brief Estimated SUM of frequencies over domain positions
  /// [begin, end) — the histogram range query (paper Section 2 mentions both
  /// point and range queries). Buckets fully inside the range contribute
  /// their exact sum; boundary buckets contribute pro-rata under the
  /// uniform-frequency assumption. `begin <= end <= domain_size()`.
  double EstimateRange(uint64_t begin, uint64_t end) const;

  /// \brief The bucket containing `index`.
  const Bucket& BucketFor(uint64_t index) const;

  /// \brief Total within-bucket SSE (the V-optimal objective).
  double TotalSse() const;

  const std::vector<Bucket>& buckets() const { return buckets_; }

  /// \brief Diagnostic (build-side) storage footprint: the full Bucket
  /// array this object holds — begin, end, sum, AND sumsq, 32 bytes per
  /// bucket, which is also what core/serialize.cc writes per bucket. (This
  /// used to claim 16 bytes/bucket, silently halving every reported size.)
  /// The ESTIMATOR-resident footprint — what the serving side actually
  /// keeps per bucket — is FlatHistogram::ResidentBytes()
  /// (histogram/flat_histogram.h), reported next to this one in the
  /// Table 4 row so capacity planning can tell the query-path cost from
  /// the diagnostics cost.
  size_t ApproxBytes() const { return buckets_.size() * sizeof(Bucket); }

 private:
  explicit Histogram(std::vector<Bucket> buckets)
      : buckets_(std::move(buckets)) {}

  std::vector<Bucket> buckets_;
};

/// \brief Accumulates (sum, sumsq) over data[begin, end).
Bucket MakeBucket(const std::vector<uint64_t>& data, uint64_t begin,
                  uint64_t end);

}  // namespace pathest

#endif  // PATHEST_HISTOGRAM_HISTOGRAM_H_
