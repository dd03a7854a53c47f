// pathest: the query-time serving facade — allocation-free single-path
// and batched estimation over a built PathHistogram or a mapped catalog.
//
// PathHistogram::Estimate is the reference path: a virtual Rank() plus a
// binary search over the 32-byte diagnostic Bucket array. The tests, and
// the benchmark's untimed q-error pass, compare against it; it serves no
// query. A serving estimator answers millions of queries per second, where
// the per-call costs — virtual dispatch, cold bucket cache lines —
// dominate. Estimator removes them:
//
//   * Rank goes through a type-tagged dispatch on Ordering::kind(): the
//     closed-form orderings (numerical / lexicographic / gray) are called
//     via their non-virtual inline RankFast bodies, sum-based via its
//     table-driven scratch fast path, and only the explicit-permutation
//     baselines stay on the virtual call.
//   * Bucket lookup goes through the SoA FlatHistogram
//     (histogram/flat_histogram.h) built once at construction.
//   * EstimateBatch amortizes the scratch across a span of queries. There
//     is no batch-parallel form: the daemon answers each request on its
//     own worker, so callers parallelize across requests.
//
// Every estimate is bit-identical to PathHistogram::Estimate (enforced by
// tests/estimator_test.cc), and out[i] depends only on paths[i].
//
// Thread safety: an Estimator is immutable after construction and safe to
// share across any number of concurrent readers, each holding its own
// RankScratch. The source PathHistogram must outlive the Estimator.

#ifndef PATHEST_CORE_ESTIMATOR_H_
#define PATHEST_CORE_ESTIMATOR_H_

#include <cstdint>
#include <span>

#include "core/path_histogram.h"
#include "histogram/flat_histogram.h"
#include "ordering/gray.h"
#include "ordering/lexicographic.h"
#include "ordering/numerical.h"
#include "ordering/ordering.h"
#include "ordering/sum_based.h"

namespace pathest {

/// \brief Immutable, concurrently-shareable serving facade over a
/// PathHistogram.
class Estimator {
 public:
  /// \param source built estimator state; borrowed, must outlive this
  ///   object. The flat bucket index is projected here, once.
  explicit Estimator(const PathHistogram& source);

  /// \brief Serves a bare (ordering, histogram) pair — the sweep-engine
  /// path, where one ordering backs many histograms. Both are borrowed and
  /// must outlive this object; the histogram's domain must equal the
  /// ordering's |L_k|.
  Estimator(const Ordering& ordering, const Histogram& histogram);

  /// \brief Serves a pre-projected flat index — the mmap zero-copy path,
  /// where `flat` is a FlatHistogram::FromBorrowedRows over a mapped binary
  /// catalog v2 (core/mapped_catalog.h). The ordering is borrowed and must
  /// outlive this object, as must the flat index's backing memory when it
  /// is a borrowed form.
  Estimator(const Ordering& ordering, FlatHistogram flat);

  /// \brief index(ℓ) through the type-tagged fast path. Allocation-free
  /// (see the scratch contract in ordering/ordering.h); bit-identical to
  /// ordering().Rank(path).
  uint64_t Rank(const LabelPath& path, RankScratch& scratch) const {
    switch (kind_) {
      case OrderingKind::kNumerical:
        return static_cast<const NumericalOrdering*>(ordering_)
            ->RankFast(path);
      case OrderingKind::kLexicographic:
        return static_cast<const LexicographicOrdering*>(ordering_)
            ->RankFast(path);
      case OrderingKind::kGray:
        return static_cast<const GrayOrdering*>(ordering_)->RankFast(path);
      case OrderingKind::kSumBased:
        return static_cast<const SumBasedOrdering*>(ordering_)
            ->Rank(path, scratch);
      case OrderingKind::kGeneric:
        break;
    }
    return ordering_->Rank(path, scratch);
  }

  /// \brief e(ℓ): fast-path point estimate. Bit-identical to
  /// PathHistogram::Estimate(path) on the same ordering and histogram.
  double Estimate(const LabelPath& path, RankScratch& scratch) const {
    return flat_.EstimatePoint(Rank(path, scratch));
  }

  /// \brief Serial batch estimation: out[i] = e(paths[i]), one internal
  /// scratch reused across the whole span. paths.size() == out.size().
  void EstimateBatch(std::span<const LabelPath> paths,
                     std::span<double> out) const;

  /// \brief e over an index RANGE of the ordered domain, through the flat
  /// prefix sums (see FlatHistogram::EstimateRange for the FP caveat vs the
  /// diagnostic Histogram path).
  double EstimateIndexRange(uint64_t begin, uint64_t end) const {
    return flat_.EstimateRange(begin, end);
  }

  /// \brief Serving-resident footprint in bytes: the flat bucket index (the
  /// diagnostic Histogram's footprint is Histogram::ApproxBytes()).
  size_t ResidentBytes() const { return flat_.ResidentBytes(); }

  /// \brief Bytes the flat index views in a mapped file (0 when its rows
  /// are owned) — the complement of ResidentBytes on the mmap path.
  size_t MappedBytes() const { return flat_.MappedBytes(); }

  const FlatHistogram& flat() const { return flat_; }
  const Ordering& ordering() const { return *ordering_; }

  /// \brief |L| of the served ordering's label set.
  size_t num_labels() const { return ordering_->space().num_labels(); }

 private:
  const Ordering* ordering_;
  OrderingKind kind_;
  FlatHistogram flat_;
};

}  // namespace pathest

#endif  // PATHEST_CORE_ESTIMATOR_H_
