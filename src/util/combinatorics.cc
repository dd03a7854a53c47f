#include "util/combinatorics.h"

#include <algorithm>

#include "util/status.h"

namespace pathest {

uint64_t Factorial(uint64_t n) {
  PATHEST_CHECK(n <= 20, "Factorial overflow (n > 20)");
  uint64_t r = 1;
  for (uint64_t i = 2; i <= n; ++i) r *= i;
  return r;
}

uint64_t CheckedMul(uint64_t a, uint64_t b) {
  __uint128_t wide = static_cast<__uint128_t>(a) * b;
  PATHEST_CHECK(wide <= ~0ULL, "uint64 multiplication overflow");
  return static_cast<uint64_t>(wide);
}

uint64_t CheckedAdd(uint64_t a, uint64_t b) {
  PATHEST_CHECK(a <= ~0ULL - b, "uint64 addition overflow");
  return a + b;
}

uint64_t CheckedPow(uint64_t base, uint64_t exp) {
  uint64_t result = 1;
  for (uint64_t i = 0; i < exp; ++i) result = CheckedMul(result, base);
  return result;
}

uint64_t Binomial(uint64_t n, uint64_t k) {
  if (k > n) return 0;
  k = std::min(k, n - k);
  // Multiplicative formula with interleaved division keeps intermediates
  // exact: after each step the accumulator equals C(n - k + i, i).
  __uint128_t acc = 1;
  for (uint64_t i = 1; i <= k; ++i) {
    acc = acc * (n - k + i) / i;
    PATHEST_CHECK(acc <= ~0ULL, "Binomial overflow");
  }
  return static_cast<uint64_t>(acc);
}

uint64_t CompositionCount(uint64_t sum, uint64_t m, uint64_t num_labels) {
  if (m == 0) return sum == 0 ? 1 : 0;
  if (sum < m || sum > m * num_labels) return 0;
  // Inclusion-exclusion over the number of parts that exceed num_labels
  // (paper Formula 3). Signed accumulation stays within int64 bounds for
  // the library's parameter ranges; verified by the overflow checks in
  // Binomial.
  int64_t total = 0;
  for (uint64_t j = 0; j <= m; ++j) {
    if (sum < j * num_labels + 1) break;  // C(negative, m-1) == 0
    uint64_t term =
        CheckedMul(Binomial(m, j), Binomial(sum - j * num_labels - 1, m - 1));
    if (j % 2 == 0) {
      total += static_cast<int64_t>(term);
    } else {
      total -= static_cast<int64_t>(term);
    }
  }
  PATHEST_CHECK(total >= 0, "CompositionCount internal error (negative)");
  return static_cast<uint64_t>(total);
}

namespace {

// Recursive worker for EnumeratePartitions. Appends, in enumeration order,
// every partition of `sum` into exactly `m` parts within [1, max_part],
// each extended by the fixed `suffix` of already-chosen larger parts.
void EnumerateRec(uint64_t sum, uint64_t m, uint64_t max_part,
                  std::vector<uint32_t>* suffix,
                  std::vector<Partition>* out) {
  if (m == 0) {
    if (sum == 0) {
      out->push_back(Partition(suffix->rbegin(), suffix->rend()));
    }
    return;
  }
  if (max_part == 0 || sum < m || sum > m * max_part) return;
  // i = number of copies of max_part used, ascending (paper Formula 4).
  uint64_t max_i = std::min(m, sum / max_part);
  for (uint64_t i = 0; i <= max_i; ++i) {
    for (uint64_t c = 0; c < i; ++c) {
      suffix->push_back(static_cast<uint32_t>(max_part));
    }
    EnumerateRec(sum - i * max_part, m - i, max_part - 1, suffix, out);
    for (uint64_t c = 0; c < i; ++c) suffix->pop_back();
  }
}

}  // namespace

std::vector<Partition> EnumeratePartitions(uint64_t sum, uint64_t m,
                                           uint64_t max_part) {
  std::vector<Partition> out;
  std::vector<uint32_t> suffix;
  EnumerateRec(sum, m, max_part, &suffix, &out);
  return out;
}

uint64_t MultisetPermutationCount(const Partition& parts) {
  if (parts.empty()) return 1;
  uint64_t numerator = Factorial(parts.size());
  Partition sorted = parts;
  std::sort(sorted.begin(), sorted.end());
  uint64_t run = 1;
  for (size_t i = 1; i <= sorted.size(); ++i) {
    if (i < sorted.size() && sorted[i] == sorted[i - 1]) {
      ++run;
    } else {
      numerator /= Factorial(run);
      run = 1;
    }
  }
  return numerator;
}

CompositionTable::CompositionTable(uint64_t num_labels, uint64_t max_len)
    : num_labels_(num_labels), max_len_(max_len) {
  PATHEST_CHECK(num_labels >= 1, "CompositionTable requires >= 1 label");
  uint64_t count_values = 0;
  for (uint64_t m = 1; m <= max_len; ++m) {
    count_values += m * num_labels - m + 1;
  }
  // One flat region: counts (m-major), then prefixes (each row one longer).
  flat_.resize(count_values + count_values + max_len);
  uint64_t* counts = flat_.data();
  uint64_t* prefixes = flat_.data() + count_values;
  rows_.resize(max_len);
  prefix_.resize(max_len);
  size_t at = 0;
  size_t pre_at = 0;
  for (uint64_t m = 1; m <= max_len; ++m) {
    const size_t row_start = at;
    for (uint64_t sum = m; sum <= m * num_labels; ++sum) {
      counts[at++] = CompositionCount(sum, m, num_labels);
    }
    // Running prefix, overflow-checked: prefix[i] = row[0] + ... + row[i-1].
    const size_t pre_start = pre_at;
    prefixes[pre_at] = 0;
    for (size_t i = row_start; i < at; ++i) {
      prefixes[pre_at + 1] = CheckedAdd(prefixes[pre_at], counts[i]);
      ++pre_at;
    }
    ++pre_at;  // past this row's final (total) entry
    rows_[m - 1] = {counts + row_start, at - row_start};
    prefix_[m - 1] = {prefixes + pre_start, pre_at - pre_start};
  }
}

uint64_t CompositionTable::Count(uint64_t sum, uint64_t m) const {
  if (m == 0 || m > max_len_) return 0;
  if (sum < m || sum > m * num_labels_) return 0;
  return rows_[m - 1][sum - m];
}

uint64_t CompositionTable::SumForOffset(uint64_t offset, uint64_t m) const {
  PATHEST_CHECK(m >= 1 && m <= max_len_, "length out of table range");
  const auto& pre = prefix_[m - 1];
  PATHEST_CHECK(offset < pre.back(), "offset beyond total composition count");
  // Largest i with pre[i] <= offset; the partition's sum is then m + i.
  auto it = std::upper_bound(pre.begin(), pre.end(), offset);
  return m + static_cast<uint64_t>(it - pre.begin()) - 1;
}

FactorialCache::FactorialCache(uint64_t max_n) {
  fact_.resize(max_n + 1);
  for (uint64_t n = 0; n <= max_n; ++n) fact_[n] = Factorial(n);
}

}  // namespace pathest
