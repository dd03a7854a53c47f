// pathest: serial histograms over an ordered frequency domain.
//
// A histogram partitions the domain [0, n) — the ordered label-path indexes —
// into β contiguous buckets and stores, per bucket, the frequency sum. The
// point estimate for a domain position is its bucket's mean frequency, the
// standard uniform-frequency assumption for serial histograms.
//
// A Histogram is two rows of β entries each, the rows binary catalog v2
// persists (core/serialize.h):
//
//   begins()[b]  bucket begins, ascending; begins()[0] == 0
//   sums()[b]    bucket frequency sum
//
// No sum of squares is kept: the V-optimal objective is scored by the free
// TotalSse below, from the data the histogram was built from.
//
// Bucket b ends at begins()[b + 1], the last one at domain_size(). The
// builders emit it, the catalog writers read it, and the serving path
// (core/estimator.h) answers from it; no other bucket representation
// exists at run time.
//
// The point estimate is the bucket mean, divided at lookup: sums()[b] /
// (end − begin). Range mass walks the overlapped buckets in order, each
// contributing its mean times its overlap. No derived row is kept, so a
// mapped catalog's rows serve as they are.
//
// Point lookup is a branchless predecessor search over the sorted begins()
// row: halve a window whose length alone drives the loop, moving its base
// by a conditional move. The answer is the sorted rank itself, and the
// loop cannot leave [0, β) whatever the row holds. It replaced an
// Eytzinger-ordered copy of the boundaries with a slot → rank map, and is
// faster at every β that bench_micro_estimation's lookup rows measure,
// built against each (moreno k = 6, |L_6| = 55,986, 1 Mi random indices,
// medians of 5 reps, 4-core Xeon, g++ 12.2 Release; ns per lookup,
// Eytzinger → sorted):
//   β       independent lookups   each index waiting on the last answer
//   64      22.8 → 9.2            31 → 27
//   874     42.3 → 16.4           52 → 43
//   27,993  95 → 39               120 → 91
// Eytzinger pays only on arrays that miss the cache, with prefetching
// (Khuong & Morin, JEA 2017); these rows stay cache-resident (the β =
// 27,993 begin row is 219 KiB) and the lookup does not prefetch. The
// search it replaced before that, std::upper_bound over 32-byte
// (begin, end, sum, sumsq) records, took 95 ns against 16 ns at β = 874;
// it survives as the test oracle in tests/oracles/histogram_oracle.h.
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
// exchange a catalog's histogram section shrank from 40 to 24 bytes per
// bucket; dropping the sum-of-squares row took it to 16.
//
// Storage comes in two forms behind the same interface:
//   - OWNED (FromBoundaries, FromRows): both rows live in one immutable
//     heap block held through a shared_ptr, so a copy is O(1) and shares
//     it, and the default copy and move members are correct.
//   - BORROWED (Borrow): the rows point into caller-owned memory — in
//     practice the 64-byte-aligned rows of a mapped binary catalog v2,
//     making construction pure pointer fixup with zero row copies. The
//     backing memory must outlive the Histogram and every copy of it;
//     core/mapped_catalog.h ties the two lifetimes.
//
// A Histogram is immutable after construction and safe to share across any
// number of concurrent readers.

#ifndef PATHEST_HISTOGRAM_HISTOGRAM_H_
#define PATHEST_HISTOGRAM_HISTOGRAM_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "util/status.h"

namespace pathest {

/// \brief Immutable begin/sum rows with O(log β) point estimation.
class Histogram {
 public:
  /// \brief Row views: β entries each, begin[0] == 0.
  struct Rows {
    uint64_t domain_size = 0;
    std::span<const uint64_t> begin;
    std::span<const double> sum;
  };

  /// \brief Builds from explicit inner boundaries over `data`.
  /// `boundaries` are the begin positions of buckets 2..β, strictly
  /// increasing within (0, n).
  static Result<Histogram> FromBoundaries(const std::vector<uint64_t>& data,
                                          std::vector<uint64_t> boundaries);

  /// \brief Takes ownership of already-aggregated rows (the catalog
  /// readers). Only their shapes are checked (an abort, not a Status):
  /// readers of untrusted bytes validate the values first — begins rising
  /// strictly from 0 below `domain_size`, sums finite and non-negative.
  static Histogram FromRows(uint64_t domain_size, std::vector<uint64_t> begin,
                            std::vector<double> sum);

  /// \brief Zero-copy form over caller-owned rows (an mmap'ed catalog
  /// section): O(1) work, no allocation, shape checks only — callers on
  /// untrusted bytes must have verified the rows first (core/serialize.h's
  /// CatalogVerify tiers). The backing memory must outlive the returned
  /// object and every copy made of it.
  static Histogram Borrow(const Rows& rows);

  /// \brief Number of buckets β.
  size_t num_buckets() const { return rows_.begin.size(); }

  /// \brief Domain size n.
  uint64_t domain_size() const { return rows_.domain_size; }

  /// \brief True when the rows live in this object's shared heap block
  /// (false: borrowed views into caller memory, e.g. a mapped catalog).
  bool owns_storage() const { return storage_ != nullptr; }

  /// \brief Bucket-mean estimate at `index` (< domain_size()).
  double EstimatePoint(uint64_t index) const {
    return BucketMean(FindBucket(index));
  }

  /// \brief Estimated SUM of frequencies over domain positions
  /// [begin, end) — the histogram range query (paper Section 2 mentions
  /// both point and range queries). Each overlapped bucket contributes its
  /// mean times its overlap, added in bucket order: buckets fully inside
  /// the range their exact sum, boundary buckets pro rata under the
  /// uniform-frequency assumption. `begin <= end <= domain_size()`.
  /// O(number of overlapped buckets).
  double EstimateRange(uint64_t begin, uint64_t end) const;

  /// \brief Sorted position of the bucket containing `index`
  /// (< domain_size()): the last b with begins()[b] <= index. Always
  /// < num_buckets(), even over begin rows that do not ascend.
  size_t FindBucket(uint64_t index) const {
    PATHEST_CHECK(index < rows_.domain_size, "estimate index out of range");
    // begin[0] == 0 guarantees a predecessor; the window [base, base +
    // len) always holds it and shrinks to one entry.
    const uint64_t* base = rows_.begin.data();
    size_t len = rows_.begin.size();
    while (len > 1) {
      const size_t half = len / 2;
      base = base[half] <= index ? base + half : base;
      len -= half;
    }
    return static_cast<size_t>(base - rows_.begin.data());
  }

  /// \brief End of bucket b (< num_buckets()): the next begin, or the
  /// domain end.
  uint64_t BucketEnd(size_t b) const {
    return b + 1 < rows_.begin.size() ? rows_.begin[b + 1] : rows_.domain_size;
  }

  /// \brief Mean frequency of bucket b (< num_buckets()).
  double BucketMean(size_t b) const {
    return rows_.sum[b] / static_cast<double>(BucketEnd(b) - rows_.begin[b]);
  }

  /// \brief Heap bytes this object holds: the two rows, 16 bytes per
  /// bucket, when storage is owned (shared by every copy); zero when
  /// borrowed.
  size_t ResidentBytes() const;

  /// \brief Bytes served through borrowed views (a mapped catalog's
  /// pages), 16 per bucket; zero for owned storage.
  size_t MappedBytes() const;

  // Row views: for a mapped catalog, the file's own rows.
  std::span<const uint64_t> begins() const { return rows_.begin; }
  std::span<const double> sums() const { return rows_.sum; }

 private:
  struct Storage {
    std::vector<uint64_t> begin;
    std::vector<double> sum;
  };

  Histogram(std::shared_ptr<const Storage> storage, const Rows& rows)
      : storage_(std::move(storage)), rows_(rows) {}

  // Aborts unless the rows are β >= 1 entries each over a non-empty
  // domain, begin[0] == 0.
  static void CheckShape(const Rows& rows);

  // Null when borrowed. The spans in rows_ view either this block or the
  // caller's memory; the block never changes, so copies may share it.
  std::shared_ptr<const Storage> storage_;
  Rows rows_;
};

/// \brief The V-optimal objective of `h` over the `data` it was built from
/// (one value per domain index): per bucket, sumsq − sum² / width. O(n).
double TotalSse(const Histogram& h, std::span<const uint64_t> data);

}  // namespace pathest

#endif  // PATHEST_HISTOGRAM_HISTOGRAM_H_
