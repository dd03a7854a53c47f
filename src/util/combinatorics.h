// pathest: combinatorial primitives backing the sum-based ordering
// (paper Section 3.3, Formulas 3-5).
//
// All counts are exact unsigned 64-bit values; helpers saturate-check and
// abort on overflow, which cannot occur for the parameter ranges used by the
// library (path length k <= 16, label sets |L| <= 4096).

#ifndef PATHEST_UTIL_COMBINATORICS_H_
#define PATHEST_UTIL_COMBINATORICS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "util/status.h"

namespace pathest {

/// \brief n! as uint64. Aborts for n > 20 (overflow).
uint64_t Factorial(uint64_t n);

/// \brief Binomial coefficient C(n, k); 0 when k > n. Overflow-checked.
uint64_t Binomial(uint64_t n, uint64_t k);

/// \brief Checked a * b for uint64; aborts on overflow.
uint64_t CheckedMul(uint64_t a, uint64_t b);

/// \brief Checked a + b for uint64; aborts on overflow.
uint64_t CheckedAdd(uint64_t a, uint64_t b);

/// \brief Checked base^exp for uint64; aborts on overflow.
uint64_t CheckedPow(uint64_t base, uint64_t exp);

/// \brief Number of compositions of `sum` into exactly `m` ordered parts,
/// each in [1, num_labels] (paper Formula 3, inclusion-exclusion).
///
/// This is the size of the stage-two partition of the sum-based histogram
/// domain holding all rank permutations of length `m` with summed rank `sum`.
/// Returns 0 when the constraints are unsatisfiable.
uint64_t CompositionCount(uint64_t sum, uint64_t m, uint64_t num_labels);

/// \brief An integer partition: a multiset of parts. Parts are kept in the
/// enumeration order produced by EnumeratePartitions (see below).
using Partition = std::vector<uint32_t>;

/// \brief All partitions of `sum` into exactly `m` parts, each in
/// [1, max_part] (paper Formula 4).
///
/// Enumeration order is the order required by the sum-based ordering's
/// stage three: the recursion peels off `i` copies of the current largest
/// allowed part `max_part` with `i` ascending, so partitions using fewer
/// large parts come first. (The paper's Formula 4 writes `m - 1` where the
/// recursion must use `m - i`; Table 2 of the paper confirms the latter.)
std::vector<Partition> EnumeratePartitions(uint64_t sum, uint64_t m,
                                           uint64_t max_part);

/// \brief Number of distinct permutations of the multiset `parts`
/// (paper Formula 5): |C|! / prod_i d_i!.
uint64_t MultisetPermutationCount(const Partition& parts);

/// \brief Cached-table variant of CompositionCount for hot paths.
///
/// The sum-based (un)ranking functions evaluate CompositionCount for every
/// (sum, length) pair of a query; this table precomputes all of them for a
/// fixed label-set size and maximum path length, PLUS the running prefix
/// sums over each length's row, so the stage-two offset of the sum-based
/// ordering (sum of all lower summed-rank partition sizes) is a single O(1)
/// lookup instead of an O(sum) loop per query. The prefix build is
/// overflow-checked (CheckedAdd).
///
/// The table is a pure function of (num_labels, max_len). The sum-based
/// ordering does not build its own: it takes the one shared per (|L|, k)
/// from the process-wide registry of ordering/sum_based.h (SumTables::For),
/// so every ordering and every mapped catalog entry of a shape reads the
/// same rows. Counts and prefixes live in one flat vector, m-major.
class CompositionTable {
 public:
  /// Precomputes counts for all m in [1, max_len], sum in [m, m*num_labels].
  CompositionTable(uint64_t num_labels, uint64_t max_len);

  // Moves keep the flat vector's heap allocation, so the per-m spans stay
  // valid; copies would need re-pointing and nothing needs them — deleted.
  CompositionTable(CompositionTable&&) noexcept = default;
  CompositionTable& operator=(CompositionTable&&) noexcept = default;
  CompositionTable(const CompositionTable&) = delete;
  CompositionTable& operator=(const CompositionTable&) = delete;

  /// \brief CompositionCount(sum, m, num_labels()); 0 outside the table.
  uint64_t Count(uint64_t sum, uint64_t m) const;

  /// \brief Number of compositions of length `m` with sum' in [m, sum) —
  /// i.e. how many whole stage-two partitions precede summed rank `sum` in
  /// the sum-based ordering. O(1); inline, it sits on the Rank fast path.
  /// Saturates: sums past the table's end return the total count for m.
  uint64_t CumulativeBelow(uint64_t sum, uint64_t m) const {
    PATHEST_CHECK(m >= 1 && m <= max_len_, "length out of table range");
    const std::span<const uint64_t> pre = prefix_[m - 1];
    if (sum <= m) return 0;
    const uint64_t i = sum - m;
    return pre[i < pre.size() ? i : pre.size() - 1];
  }

  /// \brief Inverse of CumulativeBelow: the unique sum with
  /// CumulativeBelow(sum, m) <= offset < CumulativeBelow(sum + 1, m), found
  /// by binary search over the prefix row (O(log(m * num_labels))).
  /// `offset` must be < the total composition count for length m.
  uint64_t SumForOffset(uint64_t offset, uint64_t m) const;

  uint64_t num_labels() const { return num_labels_; }
  uint64_t max_len() const { return max_len_; }

 private:
  uint64_t num_labels_ = 0;
  uint64_t max_len_ = 0;
  // Counts region then prefix region, both m-major.
  std::vector<uint64_t> flat_;
  // rows_[m - 1][sum - m] for sum in [m, m * num_labels].
  std::vector<std::span<const uint64_t>> rows_;
  // prefix_[m - 1][i] = sum of rows_[m - 1][0 .. i); one longer than rows_.
  std::vector<std::span<const uint64_t>> prefix_;
};

/// \brief Overflow-checked factorial table for (un)ranking hot paths.
///
/// The counts-based Algorithm-1 core evaluates (n-1)! once per path
/// position; this caches 0!..max_n! at construction (aborting on overflow,
/// i.e. max_n > 20) so the query path performs no recomputation.
class FactorialCache {
 public:
  explicit FactorialCache(uint64_t max_n);

  uint64_t Fact(uint64_t n) const {
    PATHEST_CHECK(n < fact_.size(), "FactorialCache index beyond max_n");
    return fact_[n];
  }

  uint64_t max_n() const { return fact_.size() - 1; }

 private:
  std::vector<uint64_t> fact_;
};

}  // namespace pathest

#endif  // PATHEST_UTIL_COMBINATORICS_H_
