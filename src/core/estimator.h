// pathest: the query-time serving facade — allocation-free single-path
// and batched estimation over a built PathHistogram or a mapped catalog.
//
// PathHistogram::Estimate is the reference path: a virtual Rank() plus the
// histogram's bucket lookup. The tests, and the benchmark's untimed
// q-error pass, compare against it; it serves no query. A serving
// estimator answers millions of queries per second, where the per-call
// cost of virtual dispatch dominates. Estimator removes it:
//
//   * Rank goes through a type-tagged dispatch on Ordering::kind(): the
//     closed-form orderings (numerical / lexicographic / gray) are called
//     via their non-virtual inline RankFast bodies, sum-based via its
//     table-driven scratch fast path, and only the explicit-permutation
//     baselines stay on the virtual call.
//   * Bucket lookup reads the Histogram's begin and sum rows
//     (histogram/histogram.h) — the very rows of the built PathHistogram
//     (shared, not copied) or of a mapped catalog v2 (borrowed).
//   * EstimateBatch amortizes the scratch across a span of queries. There
//     is no batch-parallel form: the daemon answers each request on its
//     own worker, so callers parallelize across requests.
//
// Every estimate is bit-identical to PathHistogram::Estimate (enforced by
// tests/estimator_test.cc), and out[i] depends only on paths[i].
//
// Thread safety: an Estimator is immutable after construction and safe to
// share across any number of concurrent readers, each holding its own
// RankScratch. The ordering it serves must outlive the Estimator, as must
// the backing memory of a borrowed Histogram.

#ifndef PATHEST_CORE_ESTIMATOR_H_
#define PATHEST_CORE_ESTIMATOR_H_

#include <cstdint>
#include <span>

#include "core/path_histogram.h"
#include "histogram/histogram.h"
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
  /// \param source built estimator state; its ordering is borrowed and
  ///   must outlive this object, its histogram rows are shared.
  explicit Estimator(const PathHistogram& source);

  /// \brief Serves an (ordering, histogram) pair: the sweep engine's
  /// owned histograms, where one ordering backs many, and the mmap
  /// zero-copy path's Histogram::Borrow over a mapped binary catalog v2
  /// (core/mapped_catalog.h). The ordering is borrowed and must outlive
  /// this object, as must a borrowed histogram's backing memory; the
  /// histogram's domain must equal the ordering's |L_k|.
  Estimator(const Ordering& ordering, Histogram histogram);

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
    return histogram_.EstimatePoint(Rank(path, scratch));
  }

  /// \brief Serial batch estimation: out[i] = e(paths[i]), one internal
  /// scratch reused across the whole span. paths.size() == out.size().
  void EstimateBatch(std::span<const LabelPath> paths,
                     std::span<double> out) const;

  /// \brief e over an index RANGE of the ordered domain, bit-identical to
  /// PathHistogram::EstimateIndexRange (see Histogram::EstimateRange).
  double EstimateIndexRange(uint64_t begin, uint64_t end) const {
    return histogram_.EstimateRange(begin, end);
  }

  /// \brief Serving-resident footprint in bytes: the histogram's owned
  /// begin, sum and sumsq rows (0 when they are borrowed).
  size_t ResidentBytes() const { return histogram_.ResidentBytes(); }

  /// \brief Bytes the histogram views in a mapped file (0 when its rows
  /// are owned) — the complement of ResidentBytes on the mmap path.
  size_t MappedBytes() const { return histogram_.MappedBytes(); }

  /// \brief The served histogram rows.
  const Histogram& flat() const { return histogram_; }
  const Ordering& ordering() const { return *ordering_; }

  /// \brief |L| of the served ordering's label set.
  size_t num_labels() const { return ordering_->space().num_labels(); }

 private:
  const Ordering* ordering_;
  OrderingKind kind_;
  Histogram histogram_;
};

}  // namespace pathest

#endif  // PATHEST_CORE_ESTIMATOR_H_
