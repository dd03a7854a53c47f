#include "histogram/flat_histogram.h"

#include <algorithm>
#include <utility>

namespace pathest {

void FlatHistogram::PointAtOwned() {
  begin_ = begin_store_;
  sum_ = sum_store_;
}

FlatHistogram::FlatHistogram(const Histogram& source) {
  const std::vector<Bucket>& buckets = source.buckets();
  PATHEST_CHECK(!buckets.empty(), "FlatHistogram needs at least one bucket");
  domain_size_ = source.domain_size();

  const size_t n = buckets.size();
  begin_store_.resize(n);
  sum_store_.resize(n);
  for (size_t b = 0; b < n; ++b) {
    begin_store_[b] = buckets[b].begin;
    sum_store_[b] = buckets[b].sum;
  }
  PointAtOwned();
}

FlatHistogram FlatHistogram::FromBorrowedRows(const Rows& rows) {
  const size_t n = rows.begin.size();
  PATHEST_CHECK(n >= 1, "FlatHistogram needs at least one bucket");
  PATHEST_CHECK(rows.sum.size() == n, "borrowed row shapes inconsistent");
  PATHEST_CHECK(rows.begin[0] == 0, "borrowed begins must start at 0");
  PATHEST_CHECK(rows.domain_size > 0, "borrowed domain must be non-empty");
  FlatHistogram flat;
  flat.domain_size_ = rows.domain_size;
  flat.owned_ = false;
  flat.begin_ = rows.begin;
  flat.sum_ = rows.sum;
  return flat;
}

FlatHistogram::FlatHistogram(const FlatHistogram& other)
    : domain_size_(other.domain_size_),
      owned_(other.owned_),
      begin_store_(other.begin_store_),
      sum_store_(other.sum_store_) {
  if (owned_) {
    PointAtOwned();
  } else {
    begin_ = other.begin_;
    sum_ = other.sum_;
  }
}

FlatHistogram& FlatHistogram::operator=(const FlatHistogram& other) {
  if (this == &other) return *this;
  *this = FlatHistogram(other);  // copy-construct, then move-assign
  return *this;
}

FlatHistogram::FlatHistogram(FlatHistogram&& other) noexcept
    : domain_size_(other.domain_size_),
      owned_(other.owned_),
      begin_store_(std::move(other.begin_store_)),
      sum_store_(std::move(other.sum_store_)),
      // Moving a vector keeps its heap allocation, so spans into it stay
      // valid whether they view the stores or a caller's rows.
      begin_(other.begin_),
      sum_(other.sum_) {
  other.domain_size_ = 0;
  other.begin_ = {};
  other.sum_ = {};
}

FlatHistogram& FlatHistogram::operator=(FlatHistogram&& other) noexcept {
  if (this == &other) return *this;
  domain_size_ = other.domain_size_;
  owned_ = other.owned_;
  begin_store_ = std::move(other.begin_store_);
  sum_store_ = std::move(other.sum_store_);
  begin_ = other.begin_;
  sum_ = other.sum_;
  other.domain_size_ = 0;
  other.begin_ = {};
  other.sum_ = {};
  return *this;
}

double FlatHistogram::EstimateRange(uint64_t begin, uint64_t end) const {
  PATHEST_CHECK(begin <= end, "range begin must be <= end");
  PATHEST_CHECK(end <= domain_size_, "range end out of domain");
  if (begin == end) return 0.0;
  // The bound on b keeps every read inside the rows even over begin rows
  // that do not ascend (trusted but corrupt bytes).
  double total = 0.0;
  for (size_t b = FindBucket(begin); b < begin_.size() && begin_[b] < end;
       ++b) {
    const uint64_t lo = std::max(begin, begin_[b]);
    const uint64_t hi = std::min(end, BucketEnd(b));
    total += BucketMean(b) * static_cast<double>(hi - lo);
  }
  return total;
}

size_t FlatHistogram::ResidentBytes() const {
  return begin_store_.size() * sizeof(uint64_t) +
         sum_store_.size() * sizeof(double);
}

size_t FlatHistogram::MappedBytes() const {
  if (owned_) return 0;
  return begin_.size() * sizeof(uint64_t) + sum_.size() * sizeof(double);
}

}  // namespace pathest
