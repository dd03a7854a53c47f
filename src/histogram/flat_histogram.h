// pathest: the read-optimized histogram lookup structure of the serving
// path (core/estimator.h).
//
// A Histogram keeps full Bucket records (begin, end, sum, sumsq — 32 bytes)
// because the BUILD side needs variance diagnostics; the QUERY side only
// ever reads a boundary and a mean, so an array-of-Bucket lookup drags two
// dead doubles through the cache per probed element. FlatHistogram is the
// structure-of-arrays projection built once from a Histogram:
//
//   begins()[b]      bucket begins, ascending; begins()[0] == 0
//   means()[b]       bucket mean frequency (sum / width, divided once here,
//                    so point estimates are bit-identical to
//                    Histogram::Estimate which performs the same division)
//   prefix_sums()[b] running sum of bucket frequency-sums over buckets < b
//                    (β + 1 entries), giving O(1) interior mass for ranges
//
// Point lookup is a branchless predecessor search over the sorted begins()
// row: halve a window whose length alone drives the loop, moving its base
// by a conditional move. The answer is the sorted rank itself, so there is
// no second boundary copy and no rank map, and the loop cannot leave
// [0, β) whatever the row holds. It replaced an Eytzinger-ordered copy of
// the boundaries with a slot → rank map, and is faster at every β that
// bench_micro_estimation's lookup rows measure, built against each
// (moreno k = 6, |L_6| = 55,986, 1 Mi random indices, medians of 5 reps,
// 4-core Xeon, g++ 12.2 Release; ns per lookup, Eytzinger → sorted):
//   β       independent lookups   each index waiting on the last answer
//   64      22.8 → 9.2            31 → 27
//   874     42.3 → 16.4           52 → 43
//   27,993  95 → 39               120 → 91
// Eytzinger pays only on arrays that miss the cache, with prefetching
// (Khuong & Morin, JEA 2017); these rows stay cache-resident (the β =
// 27,993 begin row is 219 KiB) and the lookup does not prefetch.
//
// Storage comes in two forms behind the same query interface:
//   - OWNED (the Histogram constructor): the three rows live in member
//     vectors, as always.
//   - BORROWED (FromBorrowedRows): the spans point into caller-owned
//     memory — in practice the 64-byte-aligned rows of a mapped binary
//     catalog v2 (core/serialize.h), making construction pure pointer
//     fixup with zero row copies. The backing memory must outlive the
//     FlatHistogram; core/mapped_catalog.h ties the two lifetimes.
//
// A FlatHistogram is immutable after construction and safe to share across
// any number of concurrent readers.

#ifndef PATHEST_HISTOGRAM_FLAT_HISTOGRAM_H_
#define PATHEST_HISTOGRAM_FLAT_HISTOGRAM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "histogram/histogram.h"
#include "util/status.h"

namespace pathest {

/// \brief Immutable SoA bucket index with branch-light point lookup.
class FlatHistogram {
 public:
  FlatHistogram() = default;

  /// \brief Builds the flat projection of `source` (which keeps ownership of
  /// the full diagnostic buckets; the two are independent afterwards).
  explicit FlatHistogram(const Histogram& source);

  /// \brief Caller-owned serving rows for borrowed construction — exactly
  /// the arrays a binary catalog v2 histogram section persists.
  struct Rows {
    uint64_t domain_size = 0;
    std::span<const uint64_t> begin;     // β entries, begin[0] == 0
    std::span<const double> mean;        // β entries
    std::span<const double> prefix_sum;  // β + 1 entries
  };

  /// \brief Zero-copy form over caller-owned rows (an mmap'ed catalog
  /// section): O(1) work, no allocation, no row validation beyond shape
  /// checks — callers on untrusted bytes must have verified the rows first
  /// (core/mapped_catalog.h's tiered verification). The backing memory must
  /// outlive the returned object and every copy made of it.
  static FlatHistogram FromBorrowedRows(const Rows& rows);

  // A copy must re-point the spans at ITS vectors when storage is owned
  // (the defaults would alias the source's heap); moves keep the heap
  // allocations, so the spans stay valid and the defaults are correct.
  FlatHistogram(const FlatHistogram& other);
  FlatHistogram& operator=(const FlatHistogram& other);
  FlatHistogram(FlatHistogram&& other) noexcept;
  FlatHistogram& operator=(FlatHistogram&& other) noexcept;

  size_t num_buckets() const { return begin_.size(); }
  uint64_t domain_size() const { return domain_size_; }
  /// \brief True when the rows live in member vectors (false: borrowed
  /// views into caller memory, e.g. a mapped catalog).
  bool owns_storage() const { return owned_; }

  /// \brief Bucket-mean estimate at `index` (< domain_size()). Bit-identical
  /// to Histogram::Estimate on the source histogram.
  double EstimatePoint(uint64_t index) const {
    return mean_[FindBucket(index)];
  }

  /// \brief Estimated SUM of frequencies over [begin, end): exact bucket
  /// sums for interior buckets (via the prefix array), pro-rata means at the
  /// boundaries. Mathematically equal to Histogram::EstimateRange but
  /// associates the additions differently, so equality is up to FP rounding
  /// (the estimator test bounds the difference).
  double EstimateRange(uint64_t begin, uint64_t end) const;

  /// \brief Sorted position of the bucket containing `index`
  /// (< domain_size()): the last b with begins()[b] <= index. Always
  /// < num_buckets(), even over begin rows that do not ascend.
  size_t FindBucket(uint64_t index) const {
    PATHEST_CHECK(index < domain_size_, "estimate index out of range");
    // begin_[0] == 0 guarantees a predecessor; the window [base, base +
    // len) always holds it and shrinks to one entry.
    const uint64_t* base = begin_.data();
    size_t len = begin_.size();
    while (len > 1) {
      const size_t half = len / 2;
      base = base[half] <= index ? base + half : base;
      len -= half;
    }
    return static_cast<size_t>(base - begin_.data());
  }

  /// \brief Heap bytes OWNED by this object: the three rows when storage is
  /// owned, zero when borrowed (the bytes then belong to the mapping —
  /// see MappedBytes).
  size_t ResidentBytes() const;

  /// \brief Bytes served through borrowed views (a mapped catalog's pages);
  /// zero for owned storage.
  size_t MappedBytes() const;

  // Row views — the writer (core/serialize.cc) persists these verbatim and
  // the full-verify path compares a rebuild against them bit-for-bit.
  std::span<const uint64_t> begins() const { return begin_; }
  std::span<const double> means() const { return mean_; }
  std::span<const double> prefix_sums() const { return prefix_sum_; }

 private:
  // Points the span members at the owned vectors (after any vector change).
  void PointAtOwned();

  uint64_t domain_size_ = 0;
  bool owned_ = true;
  std::vector<uint64_t> begin_store_;
  std::vector<double> mean_store_;
  std::vector<double> prefix_store_;
  // The query path reads ONLY these spans; for owned storage they view the
  // vectors above, for borrowed storage the caller's rows.
  std::span<const uint64_t> begin_;
  std::span<const double> mean_;
  std::span<const double> prefix_sum_;
};

}  // namespace pathest

#endif  // PATHEST_HISTOGRAM_FLAT_HISTOGRAM_H_
