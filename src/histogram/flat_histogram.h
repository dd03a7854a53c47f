// pathest: the read-optimized histogram lookup structure of the serving
// path (core/estimator.h).
//
// A Histogram keeps full Bucket records (begin, end, sum, sumsq — 32 bytes)
// because the BUILD side needs variance diagnostics; the QUERY side only
// ever reads a boundary and a frequency sum, so an array-of-Bucket lookup
// drags two dead words through the cache per probed element.
// FlatHistogram is the structure-of-arrays projection built once from a
// Histogram, two rows of β entries each:
//
//   begins()[b]  bucket begins, ascending; begins()[0] == 0
//   sums()[b]    bucket frequency sum
//
// Bucket b ends at begins()[b + 1], the last one at domain_size(). The
// point estimate is the bucket mean, divided at lookup: sums()[b] / (end −
// begin), the IEEE division Bucket::Mean performs, so every estimate is
// bit-identical to Histogram::Estimate. Range mass walks the overlapped
// buckets exactly as Histogram::EstimateRange does and is bit-identical
// too. No derived row is kept, so a mapped catalog's begin and sum rows
// serve as they are.
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
// Dividing at lookup instead of reading a stored mean row costs a few ns
// (same bench and host; each figure the median over three runs built
// with the mean row and two with the division, each run the median of 15
// reps; ns per lookup, stored mean → divided):
//   β       independent lookups   each index waiting on the last answer
//   64      7.8 → 9.4             24.5 → 31.7
//   874     14.4 → 16.9           40.0 → 45.2
//   27,993  35.8 → 36.9           85.9 → 90.8
// Independent lookups overlap the division with the next search; a
// lookup whose index waits on the last answer pays its latency. In
// exchange a catalog's histogram section shrinks from 40 to 24 bytes per
// bucket (core/serialize.h), and the serving rows from 24 to 16.
//
// Storage comes in two forms behind the same query interface:
//   - OWNED (the Histogram constructor): the two rows live in member
//     vectors.
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

  /// \brief Caller-owned serving rows for borrowed construction — the
  /// begin and sum rows a binary catalog v2 histogram section persists.
  struct Rows {
    uint64_t domain_size = 0;
    std::span<const uint64_t> begin;  // β entries, begin[0] == 0
    std::span<const double> sum;      // β entries
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
    return BucketMean(FindBucket(index));
  }

  /// \brief Estimated SUM of frequencies over [begin, end): each overlapped
  /// bucket's mean times its overlap, added in bucket order — the walk
  /// Histogram::EstimateRange takes, so the two are bit-identical. O(number
  /// of overlapped buckets).
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

  /// \brief Heap bytes OWNED by this object: the two rows when storage is
  /// owned, zero when borrowed (the bytes then belong to the mapping —
  /// see MappedBytes).
  size_t ResidentBytes() const;

  /// \brief Bytes served through borrowed views (a mapped catalog's pages);
  /// zero for owned storage.
  size_t MappedBytes() const;

  // Row views: for a mapped catalog, the file's own rows.
  std::span<const uint64_t> begins() const { return begin_; }
  std::span<const double> sums() const { return sum_; }

 private:
  // End of bucket b (< num_buckets()): the next begin, or the domain end.
  uint64_t BucketEnd(size_t b) const {
    return b + 1 < begin_.size() ? begin_[b + 1] : domain_size_;
  }
  // Mean of bucket b: Bucket::Mean's division over a non-empty bucket.
  double BucketMean(size_t b) const {
    return sum_[b] / static_cast<double>(BucketEnd(b) - begin_[b]);
  }
  // Points the span members at the owned vectors (after any vector change).
  void PointAtOwned();

  uint64_t domain_size_ = 0;
  bool owned_ = true;
  std::vector<uint64_t> begin_store_;
  std::vector<double> sum_store_;
  // The query path reads ONLY these spans; for owned storage they view the
  // vectors above, for borrowed storage the caller's rows.
  std::span<const uint64_t> begin_;
  std::span<const double> sum_;
};

}  // namespace pathest

#endif  // PATHEST_HISTOGRAM_FLAT_HISTOGRAM_H_
