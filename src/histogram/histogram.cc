#include "histogram/histogram.h"

#include <algorithm>

namespace pathest {

namespace {

// Size of the two rows of a β-bucket histogram.
size_t RowBytes(size_t beta) {
  return beta * (sizeof(uint64_t) + sizeof(double));
}

}  // namespace

Result<Histogram> Histogram::FromBoundaries(const std::vector<uint64_t>& data,
                                            std::vector<uint64_t> boundaries) {
  if (data.empty()) return Status::InvalidArgument("empty histogram domain");
  const uint64_t n = data.size();
  std::vector<uint64_t> begin;
  begin.reserve(boundaries.size() + 1);
  begin.push_back(0);
  for (uint64_t b : boundaries) {
    if (b <= begin.back() || b >= n) {
      return Status::InvalidArgument(
          "histogram boundaries must be strictly increasing within (0, n)");
    }
    begin.push_back(b);
  }
  std::vector<double> sum(begin.size(), 0.0);
  for (size_t b = 0; b < begin.size(); ++b) {
    const uint64_t end = b + 1 < begin.size() ? begin[b + 1] : n;
    for (uint64_t i = begin[b]; i < end; ++i) {
      sum[b] += static_cast<double>(data[i]);
    }
  }
  return FromRows(n, std::move(begin), std::move(sum));
}

Histogram Histogram::FromRows(uint64_t domain_size,
                              std::vector<uint64_t> begin,
                              std::vector<double> sum) {
  auto storage =
      std::make_shared<const Storage>(Storage{std::move(begin), std::move(sum)});
  const Rows rows{domain_size, storage->begin, storage->sum};
  CheckShape(rows);
  return Histogram(std::move(storage), rows);
}

Histogram Histogram::Borrow(const Rows& rows) {
  CheckShape(rows);
  return Histogram(nullptr, rows);
}

void Histogram::CheckShape(const Rows& rows) {
  const size_t n = rows.begin.size();
  PATHEST_CHECK(n >= 1, "histogram needs at least one bucket");
  PATHEST_CHECK(rows.sum.size() == n, "histogram row shapes inconsistent");
  PATHEST_CHECK(rows.begin[0] == 0, "histogram begins must start at 0");
  PATHEST_CHECK(rows.domain_size > 0, "histogram domain must be non-empty");
}

double Histogram::EstimateRange(uint64_t begin, uint64_t end) const {
  PATHEST_CHECK(begin <= end, "range begin must be <= end");
  PATHEST_CHECK(end <= rows_.domain_size, "range end out of domain");
  if (begin == end) return 0.0;
  // The bound on b keeps every read inside the rows even over begin rows
  // that do not ascend (trusted but corrupt bytes).
  double total = 0.0;
  for (size_t b = FindBucket(begin);
       b < rows_.begin.size() && rows_.begin[b] < end; ++b) {
    const uint64_t lo = std::max(begin, rows_.begin[b]);
    const uint64_t hi = std::min(end, BucketEnd(b));
    total += BucketMean(b) * static_cast<double>(hi - lo);
  }
  return total;
}

size_t Histogram::ResidentBytes() const {
  return owns_storage() ? RowBytes(num_buckets()) : 0;
}

size_t Histogram::MappedBytes() const {
  return owns_storage() ? 0 : RowBytes(num_buckets());
}

double TotalSse(const Histogram& h, std::span<const uint64_t> data) {
  PATHEST_CHECK(data.size() == h.domain_size(),
                "SSE data does not match the histogram domain");
  double total = 0.0;
  for (size_t b = 0; b < h.num_buckets(); ++b) {
    // Squares in index order, as the builders once summed them: bit-exact.
    double sumsq = 0.0;
    for (uint64_t i = h.begins()[b]; i < h.BucketEnd(b); ++i) {
      sumsq += static_cast<double>(data[i]) * static_cast<double>(data[i]);
    }
    total += sumsq - (h.sums()[b] * h.sums()[b]) /
                         (h.BucketEnd(b) - h.begins()[b]);
  }
  return total;
}

}  // namespace pathest
