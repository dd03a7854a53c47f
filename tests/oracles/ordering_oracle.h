// First-principles reference for the sum-based ordering
// (ordering/sum_based.h, paper Section 3.3).
//
// Rank derives every offset from the paper's formulas directly: stage 1
// sums |L|^len over the shorter lengths, stage 2 sums CompositionCount
// (Formula 3) over every lower summed rank, stage 3 walks the cell's
// partitions in EnumeratePartitions order (Formula 4) adding each earlier
// block's MultisetPermutationCount (Formula 5), and the in-block position is
// factorial arithmetic over multiplicity counts. It shares no code with the
// ordering's flat stage-2/3 tables, its key encodings or its Algorithm-1
// core. Each cell's partition list is memoized, so a full-domain sweep
// enumerates every cell once. Unrank is brute force: rank every path of the
// space once and invert the result. Test-sized domains only.

#ifndef PATHEST_TESTS_ORACLES_ORDERING_ORACLE_H_
#define PATHEST_TESTS_ORACLES_ORDERING_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ordering/ordering.h"
#include "ordering/ranking.h"
#include "path/label_path.h"
#include "path/path_space.h"
#include "util/combinatorics.h"
#include "util/status.h"

namespace pathest {
namespace oracles {

class SumOrderingOracle {
 public:
  SumOrderingOracle(const PathSpace& space, LabelRanking ranking)
      : space_(space), ranking_(std::move(ranking)) {}

  /// index(ℓ) under the sum-based ordering with this ranking.
  uint64_t Rank(const LabelPath& path) const {
    PATHEST_CHECK(space_.Contains(path), "oracle: path outside space");
    const size_t m = path.length();
    const uint64_t num_labels = space_.num_labels();
    std::vector<uint32_t> ranks(m);
    uint64_t sr = 0;
    for (size_t i = 0; i < m; ++i) {
      ranks[i] = ranking_.RankOf(path.label(i));
      sr += ranks[i];
    }
    std::vector<uint32_t> combo = ranks;
    std::sort(combo.begin(), combo.end());

    // Stage 1: every shorter path precedes.
    uint64_t index = 0;
    uint64_t pow = 1;
    for (size_t len = 1; len < m; ++len) {
      pow *= num_labels;
      index += pow;
    }
    // Stage 2: every lower summed rank of this length precedes.
    for (uint64_t s = m; s < sr; ++s) {
      index += CompositionCount(s, m, num_labels);
    }
    // Stage 3: every earlier combination block of the (m, sr) cell.
    bool found = false;
    for (const auto& [parts, nop] : Cell(m, sr)) {
      if (parts == combo) {
        found = true;
        break;
      }
      index += nop;
    }
    PATHEST_CHECK(found, "oracle: rank multiset missing from its cell");
    // Position among the multiset's permutations: with multiplicities c
    // of the remaining values and D = prod c_w!, the permutations that
    // start with value v number (n-1)! * c_v / D.
    std::vector<uint64_t> counts(num_labels + 1, 0);
    uint64_t denom = 1;
    for (uint32_t r : ranks) denom *= ++counts[r];
    for (size_t i = 0; i < m; ++i) {
      const uint64_t rest = Factorial(m - i - 1);
      for (uint32_t v = 1; v < ranks[i]; ++v) {
        index += rest * counts[v] / denom;
      }
      denom /= counts[ranks[i]]--;
    }
    return index;
  }

  /// table[i] = canonical index (PathSpace::CanonicalIndex) of the path at
  /// domain position i. Aborts unless Rank is a bijection onto
  /// [0, |L_k|).
  std::vector<uint64_t> UnrankTable() const {
    constexpr uint64_t kUnset = ~0ULL;
    std::vector<uint64_t> table(space_.size(), kUnset);
    uint64_t canonical = 0;
    space_.ForEach([&](const LabelPath& path) {
      const uint64_t index = Rank(path);
      PATHEST_CHECK(index < table.size() && table[index] == kUnset,
                    "oracle: rank is not a bijection");
      table[index] = canonical++;
    });
    return table;
  }

 private:
  using Block = std::pair<Partition, uint64_t>;  // sorted parts, nop

  const std::vector<Block>& Cell(size_t m, uint64_t sr) const {
    auto [it, inserted] = cells_.try_emplace({m, sr});
    if (inserted) {
      for (Partition& parts :
           EnumeratePartitions(sr, m, space_.num_labels())) {
        const uint64_t nop = MultisetPermutationCount(parts);
        it->second.emplace_back(std::move(parts), nop);
      }
    }
    return it->second;
  }

  PathSpace space_;
  LabelRanking ranking_;
  mutable std::map<std::pair<size_t, uint64_t>, std::vector<Block>> cells_;
};

/// Checks `ordering` against an oracle UnrankTable over its whole domain:
/// Unrank(i), Rank(path) and the scratch Rank(path, scratch) at every
/// index. Returns "" when all agree, else the first disagreement.
inline std::string FirstOrderingMismatch(
    const Ordering& ordering, const std::vector<uint64_t>& table) {
  const PathSpace& space = ordering.space();
  if (table.size() != space.size()) return "domain size differs";
  RankScratch scratch;
  for (uint64_t i = 0; i < table.size(); ++i) {
    const LabelPath want = space.CanonicalPath(table[i]);
    const LabelPath got = ordering.Unrank(i);
    if (!(got == want)) {
      return "Unrank(" + std::to_string(i) + ") = " + got.ToIdString() +
             ", oracle " + want.ToIdString();
    }
    if (ordering.Rank(want) != i || ordering.Rank(want, scratch) != i) {
      return "Rank(" + want.ToIdString() + ") != oracle " +
             std::to_string(i);
    }
  }
  return "";
}

}  // namespace oracles
}  // namespace pathest

#endif  // PATHEST_TESTS_ORACLES_ORDERING_ORACLE_H_
