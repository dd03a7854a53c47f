// pathest: lexicographical ordering (paper Section 3.2).
//
// Dictionary order over rank sequences: every path is conceptually padded to
// length k with blank symbols and compared position-wise. The paper's prose
// states rank(blank) > rank(l), but its own Table 2 ("lex-alph": 1, 1/1,
// 1/2, ..., i.e., a path precedes its extensions) requires blanks to sort
// BEFORE labels — ordinary dictionary order, where "a" < "ab". We implement
// the Table 2 behaviour; see "Design notes" in README.md.
//
// Closed form used for O(k) (un)ranking: with T(d) = sum_{i=0}^{k-d} |L|^i
// the number of paths in the subtree rooted at a depth-d node (itself
// included),
//   index(ℓ) = sum_{i=1..|ℓ|} (r_i - 1) * T(i)  +  (|ℓ| - 1).

#ifndef PATHEST_ORDERING_LEXICOGRAPHIC_H_
#define PATHEST_ORDERING_LEXICOGRAPHIC_H_

#include <string>
#include <vector>

#include "ordering/ordering.h"
#include "ordering/ranking.h"

namespace pathest {

/// \brief Lexicographical ordering ("lex-alph" / "lex-card").
class LexicographicOrdering : public Ordering {
 public:
  LexicographicOrdering(PathSpace space, LabelRanking ranking);

  const std::string& name() const override { return name_; }
  uint64_t Rank(const LabelPath& path) const override;
  LabelPath Unrank(uint64_t index) const override;
  const PathSpace& space() const override { return space_; }
  OrderingKind kind() const override { return OrderingKind::kLexicographic; }

  /// \brief Non-virtual Rank body for the estimator's type-tagged dispatch
  /// (closed-form, O(k), allocation-free).
  uint64_t RankFast(const LabelPath& path) const {
    PATHEST_CHECK(space_.Contains(path), "path outside space");
    uint64_t index = path.length() - 1;
    for (size_t i = 0; i < path.length(); ++i) {
      uint64_t digit = ranking_.RankOf(path.label(i)) - 1;
      index += digit * subtree_[i + 1];
    }
    return index;
  }

  const LabelRanking& ranking() const { return ranking_; }

 private:
  PathSpace space_;
  LabelRanking ranking_;
  std::string name_;
  // subtree_[d] = T(d) for d in [1, k]; number of label paths whose rank
  // sequence starts with a fixed depth-d prefix (the prefix itself included).
  std::vector<uint64_t> subtree_;
};

}  // namespace pathest

#endif  // PATHEST_ORDERING_LEXICOGRAPHIC_H_
