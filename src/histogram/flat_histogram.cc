#include "histogram/flat_histogram.h"

#include <utility>

namespace pathest {

void FlatHistogram::PointAtOwned() {
  begin_ = begin_store_;
  mean_ = mean_store_;
  prefix_sum_ = prefix_store_;
}

FlatHistogram::FlatHistogram(const Histogram& source) {
  const std::vector<Bucket>& buckets = source.buckets();
  PATHEST_CHECK(!buckets.empty(), "FlatHistogram needs at least one bucket");
  domain_size_ = source.domain_size();

  const size_t n = buckets.size();
  begin_store_.resize(n);
  mean_store_.resize(n);
  prefix_store_.resize(n + 1);
  prefix_store_[0] = 0.0;
  for (size_t b = 0; b < n; ++b) {
    begin_store_[b] = buckets[b].begin;
    mean_store_[b] = buckets[b].Mean();
    prefix_store_[b + 1] = prefix_store_[b] + buckets[b].sum;
  }
  PointAtOwned();
}

FlatHistogram FlatHistogram::FromBorrowedRows(const Rows& rows) {
  const size_t n = rows.begin.size();
  PATHEST_CHECK(n >= 1, "FlatHistogram needs at least one bucket");
  PATHEST_CHECK(rows.mean.size() == n && rows.prefix_sum.size() == n + 1,
                "borrowed row shapes inconsistent");
  PATHEST_CHECK(rows.begin[0] == 0, "borrowed begins must start at 0");
  PATHEST_CHECK(rows.domain_size > 0, "borrowed domain must be non-empty");
  FlatHistogram flat;
  flat.domain_size_ = rows.domain_size;
  flat.owned_ = false;
  flat.begin_ = rows.begin;
  flat.mean_ = rows.mean;
  flat.prefix_sum_ = rows.prefix_sum;
  return flat;
}

FlatHistogram::FlatHistogram(const FlatHistogram& other)
    : domain_size_(other.domain_size_),
      owned_(other.owned_),
      begin_store_(other.begin_store_),
      mean_store_(other.mean_store_),
      prefix_store_(other.prefix_store_) {
  if (owned_) {
    PointAtOwned();
  } else {
    begin_ = other.begin_;
    mean_ = other.mean_;
    prefix_sum_ = other.prefix_sum_;
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
      mean_store_(std::move(other.mean_store_)),
      prefix_store_(std::move(other.prefix_store_)),
      // Moving a vector keeps its heap allocation, so spans into it stay
      // valid whether they view the stores or a caller's rows.
      begin_(other.begin_),
      mean_(other.mean_),
      prefix_sum_(other.prefix_sum_) {
  other.domain_size_ = 0;
  other.begin_ = {};
  other.mean_ = {};
  other.prefix_sum_ = {};
}

FlatHistogram& FlatHistogram::operator=(FlatHistogram&& other) noexcept {
  if (this == &other) return *this;
  domain_size_ = other.domain_size_;
  owned_ = other.owned_;
  begin_store_ = std::move(other.begin_store_);
  mean_store_ = std::move(other.mean_store_);
  prefix_store_ = std::move(other.prefix_store_);
  begin_ = other.begin_;
  mean_ = other.mean_;
  prefix_sum_ = other.prefix_sum_;
  other.domain_size_ = 0;
  other.begin_ = {};
  other.mean_ = {};
  other.prefix_sum_ = {};
  return *this;
}

double FlatHistogram::EstimateRange(uint64_t begin, uint64_t end) const {
  PATHEST_CHECK(begin <= end, "range begin must be <= end");
  PATHEST_CHECK(end <= domain_size_, "range end out of domain");
  if (begin == end) return 0.0;
  const size_t first = FindBucket(begin);
  const size_t last = FindBucket(end - 1);
  // first > last only on begin rows that do not ascend (trusted but
  // corrupt bytes); treating that like one bucket keeps every read below
  // inside the rows.
  if (first >= last) {
    return mean_[first] * static_cast<double>(end - begin);
  }
  // End of bucket b is the begin of bucket b + 1 (or the domain end).
  const uint64_t first_end = begin_[first + 1];
  double total = mean_[first] * static_cast<double>(first_end - begin);
  total += prefix_sum_[last] - prefix_sum_[first + 1];
  total += mean_[last] * static_cast<double>(end - begin_[last]);
  return total;
}

size_t FlatHistogram::ResidentBytes() const {
  return begin_store_.size() * sizeof(uint64_t) +
         mean_store_.size() * sizeof(double) +
         prefix_store_.size() * sizeof(double);
}

size_t FlatHistogram::MappedBytes() const {
  if (owned_) return 0;
  return begin_.size() * sizeof(uint64_t) + mean_.size() * sizeof(double) +
         prefix_sum_.size() * sizeof(double);
}

}  // namespace pathest
