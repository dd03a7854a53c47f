// pathest: sum-based ordering (paper Section 3.3) — the paper's primary
// contribution.
//
// The index of a path approximates its cardinality through the SUM of its
// base-label ranks, via a three-stage partitioning of the domain:
//   stage 1: by path length (shorter first); partition size |L|^m,
//   stage 2: within a length, by summed rank sr (lower first); partition
//            size = CompositionCount(sr, m, |L|)  (Formula 3),
//   stage 3: within a summed rank, by the rank multiset (integer partition
//            of sr into m parts in [1, |L|], Formula 4), enumerated with the
//            multiplicity of the largest part ascending; partition size =
//            MultisetPermutationCount (Formula 5); finally by the concrete
//            permutation in the order of the paper's Algorithm 1.
//
// Rank() is the forward bijection (the inverse of the paper's Algorithm 2);
// Unrank() is Algorithm 2 itself, delegating to Algorithm 1 for the
// in-partition permutation.
//
// Both directions run over the same FLAT stage-2/stage-3 tables
// (CompositionTable prefix rows + the SumStage3Index below) and nothing
// else. Rank looks its cell's block up by key; Unrank finds the (m, sr)
// cell with CompositionTable::SumForOffset, binary-searches the cell's
// block offsets for the block holding the index, and decodes that block's
// key back into its rank multiset.
//
// Both tables are pure functions of (|L|, k), so no ordering owns them and
// no catalog stores them: SumTables::For hands every ordering of a shape
// the same immutable pair from a process-wide registry. The registry keeps
// weak references, so the first ordering of a shape builds its tables
// (microseconds to a millisecond at the shapes the benches use) and the
// last one to go frees them. A mapped catalog entry (core/mapped_catalog.h)
// therefore builds nothing while any other ordering of its shape is alive.
//
// Every servable shape has a 64-bit multiset key (SumKeyScheme). A shape
// without one — |L| and k both large, e.g. |L| = 4096 at k = 5 — is refused
// with a typed error before any ordering is built (CheckOrderingShape in
// ordering/factory.h); constructing a SumBasedOrdering on one aborts.

#ifndef PATHEST_ORDERING_SUM_BASED_H_
#define PATHEST_ORDERING_SUM_BASED_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ordering/ordering.h"
#include "ordering/ranking.h"
#include "util/combinatorics.h"

namespace pathest {

/// \brief Allocation-free core of Algorithm 1: writes the index-th distinct
/// permutation of the multiset `combination` into `out`.
///
/// Runs on multiplicities instead of rebuilding a `rest` vector per
/// position: with c_v the remaining multiplicity of value v and W the
/// number of distinct permutations of the remaining multiset, the
/// permutations starting with v number W * c_v / n_rem (an exact integer),
/// so each position is resolved by one sweep over the distinct values of
/// `combination`. The (value, multiplicity) list lives on the stack — no
/// caller buffer, zero heap allocations.
///
/// \param index position in [0, MultisetPermutationCount(combination)).
/// \param m combination size (and output length), at most kMaxPathLength.
/// \param combination the multiset, sorted ascending, size m.
/// \param fact factorial cache covering at least m.
/// \param out receives the permutation, size m.
void UnrankPermutationCounts(uint64_t index, size_t m,
                             const uint32_t* combination,
                             const FactorialCache& fact, uint32_t* out);

/// \brief Allocation-free core of the inverse of Algorithm 1: the position
/// of `permutation` among the distinct permutations of `combination`.
///
/// Same counts-based scheme as UnrankPermutationCounts, but on a caller
/// buffer `counts` indexed by VALUE: capacity > the max value of both
/// `combination` and `permutation` (so a foreign permutation is diagnosed,
/// not read out of bounds), all-zero on entry, restored to all-zero on
/// return.
uint64_t RankPermutationCounts(const uint32_t* permutation, size_t m,
                               const uint32_t* combination, uint32_t* counts,
                               const FactorialCache& fact);

/// \brief Unranking a permutation of a multiset (paper Algorithm 1).
/// Allocating convenience wrapper over UnrankPermutationCounts; results are
/// bit-identical.
///
/// \param index position in [0, MultisetPermutationCount(combination)).
/// \param combination multiset of values, sorted ascending.
/// \return the index-th distinct permutation, where permutations are ordered
///   by their first element (ascending over distinct values), then
///   recursively.
std::vector<uint32_t> UnrankPermutationOfCombination(
    uint64_t index, const std::vector<uint32_t>& combination);

/// \brief Inverse of UnrankPermutationOfCombination. Allocating convenience
/// wrapper over RankPermutationCounts; results are bit-identical.
///
/// \param permutation a permutation of `combination`.
/// \param combination multiset sorted ascending.
uint64_t RankPermutationInCombination(const std::vector<uint32_t>& permutation,
                                      std::vector<uint32_t> combination);

/// \brief Key encoding of the stage-three index.
enum class SumKeyScheme : uint32_t {
  /// The multiplicity vector as a packed number: value v occupies key_bits
  /// bits at position (v - 1) * key_bits, and a query key is built by
  /// ADDING 1 << shift per path rank — order-free, so the fast path needs
  /// no sort at all. Feasible when |L| * ceil(log2(k + 1)) <= 64.
  kCounts = 1,
  /// The sorted combination packed value-by-value. Feasible when
  /// k * ceil(log2(|L| + 1)) <= 64; costs an insertion sort per query.
  kSorted = 2,
};

/// \brief The scheme (and per-field bit width) a (|L|, k) space uses —
/// a pure function of the shape, shared by the stage-three index build and
/// the shape gate (CheckOrderingShape in ordering/factory.h). Returns false
/// when no 64-bit key fits the space (the outputs are then unspecified):
/// such a space cannot be served.
bool ChooseSumKeyScheme(uint64_t num_labels, uint64_t k,
                        SumKeyScheme* scheme, uint32_t* key_bits);

/// \brief Encodes a rank multiset (any order under kCounts; sorted
/// ascending under kSorted) of size m into its lookup key.
inline uint64_t SumEncodeKey(SumKeyScheme scheme, uint32_t key_bits,
                             const uint32_t* values, size_t m) {
  uint64_t key = 0;
  if (scheme == SumKeyScheme::kCounts) {
    for (size_t i = 0; i < m; ++i) {
      key += 1ULL << (static_cast<size_t>(values[i] - 1) * key_bits);
    }
  } else {
    for (size_t i = 0; i < m; ++i) {
      key |= static_cast<uint64_t>(values[i]) << (i * key_bits);
    }
  }
  return key;
}

/// \brief The flat stage-three index: every (m, sr) cell's partition blocks
/// as key-sorted parallel arrays, all cells concatenated m-major (cell id =
/// SumStage3CellBase(m) + (sr - m)). cell_starts has one entry per cell
/// plus a final total, so cell c's blocks live at
/// [cell_starts[c], cell_starts[c+1]) in keys/offsets/nops.
struct SumStage3Index {
  SumKeyScheme scheme = SumKeyScheme::kCounts;
  uint32_t key_bits = 0;
  std::vector<uint64_t> cell_starts;
  std::vector<uint64_t> keys;     // ascending within each cell
  std::vector<uint64_t> offsets;  // offsets[i] belongs to keys[i]
  std::vector<uint64_t> nops;     // permutation count of keys[i]'s multiset
};

/// \brief Builds the stage-three index for (num_labels, k) by enumerating
/// every (m, sr) cell's partitions (Formula 4) in block order. The space
/// must have a key (ChooseSumKeyScheme); aborts otherwise.
SumStage3Index BuildSumStage3Index(uint64_t num_labels, uint64_t k);

/// \brief The stage-two and stage-three tables of one (|L|, k) space,
/// immutable once built. Shared by every SumBasedOrdering of the shape.
struct SumTables {
  /// Builds both tables; the space must have a 64-bit multiset key.
  SumTables(uint64_t num_labels, uint64_t k);

  /// \brief The process-wide registry: the live tables of (num_labels, k),
  /// built here under the registry mutex if no ordering holds them. The
  /// registry keeps only weak references, so a shape nothing uses is
  /// freed; thread-safe.
  static std::shared_ptr<const SumTables> For(uint64_t num_labels,
                                              uint64_t k);

  CompositionTable compositions;
  SumStage3Index index;
};

/// \brief Sum-based ordering. The paper pairs it with cardinality ranking
/// (method name "sum-based"); any LabelRanking is accepted, enabling the
/// sum-alph ablation. The space must have a 64-bit multiset key
/// (ChooseSumKeyScheme); construction aborts otherwise.
class SumBasedOrdering : public Ordering {
 public:
  /// Takes the space's stage-two and stage-three tables from
  /// SumTables::For.
  SumBasedOrdering(PathSpace space, LabelRanking ranking);

  const std::string& name() const override { return name_; }
  /// \brief The fast path below on a local scratch; allocation-free.
  uint64_t Rank(const LabelPath& path) const override;
  LabelPath Unrank(uint64_t index) const override;
  const PathSpace& space() const override { return space_; }
  OrderingKind kind() const override { return OrderingKind::kSumBased; }

  /// \brief The allocation-free fast path (the scratch contract in
  /// ordering/ordering.h): three table lookups (length offset, O(1)
  /// stage-two prefix, stage-three binary search) plus a branchless
  /// in-block permutation rank, all on caller-owned buffers.
  uint64_t Rank(const LabelPath& path, RankScratch& scratch) const override;

  /// \brief Scratch-based Unrank (non-virtual; Unrank(index) wraps it):
  /// SumForOffset over the stage-two prefix row, a binary search of the
  /// cell's block offsets for the block holding the index, the block key
  /// decoded into its rank multiset, then the counts-based Algorithm-1
  /// core.
  LabelPath Unrank(uint64_t index, RankScratch& scratch) const;

  const LabelRanking& ranking() const { return ranking_; }
  /// \brief The shape's shared stage-two and stage-three tables.
  const SumTables& tables() const { return *tables_; }

 private:
  // Decodes block key `key` of a length-m cell into its rank multiset,
  // sorted ascending, in combo[0..m). Aborts on a key that does not encode
  // m ranks in [1, |L|].
  void DecodeKey(uint64_t key, size_t m, uint32_t* combo) const;

  PathSpace space_;
  LabelRanking ranking_;
  std::string name_;
  std::shared_ptr<const SumTables> tables_;
  // Factorials 0!..k! for the counts-based Algorithm-1 core; built
  // (overflow-checked) once at construction.
  FactorialCache fact_;
  SumKeyScheme key_scheme_ = SumKeyScheme::kCounts;
  size_t key_bits_ = 0;  // bits per key field under the chosen scheme
  // The fast path reads ONLY these spans (into tables_->index).
  std::span<const uint64_t> cell_starts_;
  std::span<const uint64_t> keys_;
  std::span<const uint64_t> offsets_;
  std::span<const uint64_t> nops_;
  // cell_base_[m - 1] = id of cell (m, sr=m); cell id grows with sr.
  std::vector<uint64_t> cell_base_;
};

}  // namespace pathest

#endif  // PATHEST_ORDERING_SUM_BASED_H_
