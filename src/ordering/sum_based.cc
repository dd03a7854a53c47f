#include "ordering/sum_based.h"

#include <algorithm>
#include <array>
#include <map>
#include <mutex>
#include <tuple>
#include <utility>

#include "util/status.h"

namespace pathest {

namespace {

// Magic-reciprocal division by the remaining permutation length. The
// hardware 64-bit divide these cores would otherwise issue per position is
// the single largest cost of a sum-based query; with the divisor n in
// [2, kMaxPathLength] and every dividend bounded by 16! * 16 < 2^49, the
// multiply-high by ceil(2^64 / n) is exact (error term < x / 2^64 << the
// 1/n quantum), so this is floor division, just without the divider unit.
constexpr auto kDivMagic = [] {
  std::array<uint64_t, kMaxPathLength + 1> magic{};
  for (size_t n = 2; n <= kMaxPathLength; ++n) magic[n] = ~0ULL / n + 1;
  return magic;
}();

inline uint64_t DivSmall(uint64_t x, size_t n) {
  if (n == 1) return x;
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(x) * kDivMagic[n]) >> 64);
}

// Multiplicities of `combination` into `counts`, returning the number of
// distinct permutations W = m! / prod c_w! of the whole multiset.
inline uint64_t FillCountsAndNop(const uint32_t* combination, size_t m,
                                 uint32_t* counts, const FactorialCache& fact) {
  uint64_t denom = 1;
  for (size_t i = 0; i < m; ++i) {
    ++counts[combination[i]];
    denom *= counts[combination[i]];  // running product builds prod c_w!
  }
  return fact.Fact(m) / denom;
}

}  // namespace

void UnrankPermutationCounts(uint64_t index, size_t m,
                             const uint32_t* combination,
                             const FactorialCache& fact, uint32_t* out) {
  PATHEST_CHECK(m <= kMaxPathLength, "combination longer than kMaxPathLength");
  // The distinct values of the (sorted) combination and their
  // multiplicities, with D = prod c_w! built as a running product.
  uint32_t values[kMaxPathLength];
  uint64_t counts[kMaxPathLength];
  size_t distinct = 0;
  uint64_t denom = 1;
  for (size_t i = 0; i < m; ++i) {
    if (distinct == 0 || combination[i] != values[distinct - 1]) {
      values[distinct] = combination[i];
      counts[distinct++] = 0;
    }
    denom *= ++counts[distinct - 1];
  }
  // Invariant: w = number of distinct permutations of the REMAINING
  // multiset. Those starting with value v number w * c_v / n_rem (an exact
  // integer), which is also the next w when v is chosen — so the whole
  // unranking needs no further denominator bookkeeping.
  uint64_t w = fact.Fact(m) / denom;
  for (size_t pos = 0; pos < m; ++pos) {
    const size_t n_rem = m - pos;
    bool placed = false;
    for (size_t j = 0; j < distinct; ++j) {
      if (counts[j] == 0) continue;  // exhausted by earlier positions
      const uint64_t block = DivSmall(w * counts[j], n_rem);
      if (index >= block) {
        index -= block;
        continue;
      }
      out[pos] = values[j];
      w = block;
      --counts[j];
      placed = true;
      break;
    }
    PATHEST_CHECK(placed, "permutation index out of range");
  }
}

uint64_t RankPermutationCounts(const uint32_t* permutation, size_t m,
                               const uint32_t* combination, uint32_t* counts,
                               const FactorialCache& fact) {
  PATHEST_CHECK(m <= kMaxPathLength, "combination longer than kMaxPathLength");
  uint64_t w = FillCountsAndNop(combination, m, counts, fact);
  uint64_t rank = 0;
  for (size_t pos = 0; pos < m; ++pos) {
    const uint32_t head = permutation[pos];
    const size_t n_rem = m - pos;
    // All permutations starting with a smaller distinct value come first.
    // Each such block is w * c_v / n_rem; since every block is an exact
    // integer, the SUM telescopes to w * (sum of smaller counts) / n_rem —
    // one multiply and one small division for the whole position.
    uint64_t below = 0;
    for (size_t j = 0; j < m && combination[j] < head; ++j) {
      if (j > 0 && combination[j] == combination[j - 1]) continue;
      below += counts[combination[j]];
    }
    rank += DivSmall(w * below, n_rem);
    PATHEST_CHECK(counts[head] > 0,
                  "permutation is not a permutation of the combination");
    w = DivSmall(w * counts[head], n_rem);
    --counts[head];
  }
  return rank;
}

std::vector<uint32_t> UnrankPermutationOfCombination(
    uint64_t index, const std::vector<uint32_t>& combination) {
  PATHEST_CHECK(!combination.empty(), "empty combination");
  PATHEST_CHECK(std::is_sorted(combination.begin(), combination.end()),
                "combination must be sorted ascending");
  PATHEST_CHECK(index < MultisetPermutationCount(combination),
                "permutation index out of range");
  const FactorialCache fact(combination.size());
  std::vector<uint32_t> out(combination.size());
  UnrankPermutationCounts(index, combination.size(), combination.data(), fact,
                          out.data());
  return out;
}

uint64_t RankPermutationInCombination(const std::vector<uint32_t>& permutation,
                                      std::vector<uint32_t> combination) {
  PATHEST_CHECK(permutation.size() == combination.size(),
                "permutation/combination size mismatch");
  if (permutation.empty()) return 0;
  const FactorialCache fact(combination.size());
  const uint32_t max_value =
      std::max(*std::max_element(permutation.begin(), permutation.end()),
               combination.back());
  std::vector<uint32_t> counts(max_value + 1, 0);
  return RankPermutationCounts(permutation.data(), permutation.size(),
                               combination.data(), counts.data(), fact);
}

bool ChooseSumKeyScheme(uint64_t num_labels, uint64_t k,
                        SumKeyScheme* scheme, uint32_t* key_bits) {
  // Prefer the order-free counts encoding (no sort on the query path),
  // fall back to the sorted pack; neither fitting means no key.
  uint32_t count_bits = 1;  // bits to hold multiplicities in [0, k]
  while ((1ULL << count_bits) <= k) ++count_bits;
  uint32_t value_bits = 1;  // bits to hold ranks in [1, |L|]
  while (value_bits < 64 && (1ULL << value_bits) <= num_labels) ++value_bits;
  if (num_labels <= 64 / count_bits) {
    *scheme = SumKeyScheme::kCounts;
    *key_bits = count_bits;
    return true;
  }
  if (k <= 64 / value_bits) {
    *scheme = SumKeyScheme::kSorted;
    *key_bits = value_bits;
    return true;
  }
  return false;
}

namespace {

// Number of (m, sr) cells: sum over m of (m*|L| - m + 1).
uint64_t SumStage3CellCount(uint64_t num_labels, uint64_t k) {
  uint64_t cells = 0;
  for (uint64_t m = 1; m <= k; ++m) cells += m * num_labels - m + 1;
  return cells;
}

}  // namespace

SumStage3Index BuildSumStage3Index(uint64_t num_labels, uint64_t k) {
  SumStage3Index index;
  PATHEST_CHECK(ChooseSumKeyScheme(num_labels, k, &index.scheme,
                                   &index.key_bits),
                "no 64-bit multiset key for this space");

  index.cell_starts.reserve(SumStage3CellCount(num_labels, k) + 1);
  index.cell_starts.push_back(0);
  std::vector<std::tuple<uint64_t, uint64_t, uint64_t>> entries;
  for (uint64_t m = 1; m <= k; ++m) {
    for (uint64_t sr = m; sr <= m * num_labels; ++sr) {
      entries.clear();
      uint64_t offset = 0;
      for (const Partition& p : EnumeratePartitions(sr, m, num_labels)) {
        const uint64_t nop = MultisetPermutationCount(p);
        entries.push_back({SumEncodeKey(index.scheme, index.key_bits,
                                        p.data(), m),
                           offset, nop});
        offset += nop;
      }
      std::sort(entries.begin(), entries.end());
      for (const auto& [key, block_offset, nop] : entries) {
        index.keys.push_back(key);
        index.offsets.push_back(block_offset);
        index.nops.push_back(nop);
      }
      index.cell_starts.push_back(index.keys.size());
    }
  }
  return index;
}

SumTables::SumTables(uint64_t num_labels, uint64_t k)
    : compositions(num_labels, k), index(BuildSumStage3Index(num_labels, k)) {}

std::shared_ptr<const SumTables> SumTables::For(uint64_t num_labels,
                                                uint64_t k) {
  static std::mutex mu;
  static std::map<std::pair<uint64_t, uint64_t>,
                  std::weak_ptr<const SumTables>>
      live;
  std::lock_guard<std::mutex> lock(mu);
  std::weak_ptr<const SumTables>& slot = live[{num_labels, k}];
  if (std::shared_ptr<const SumTables> tables = slot.lock()) return tables;
  // Building under the lock is what makes a shape's tables one object:
  // a second thread asking for the same shape waits and then shares them.
  std::shared_ptr<const SumTables> tables(new SumTables(num_labels, k));
  slot = tables;
  // Drop the entries of shapes nothing serves any more.
  std::erase_if(live, [](const auto& entry) { return entry.second.expired(); });
  return tables;
}

SumBasedOrdering::SumBasedOrdering(PathSpace space, LabelRanking ranking)
    : space_(space),
      ranking_(std::move(ranking)),
      tables_(SumTables::For(space.num_labels(), space.k())),
      fact_(space.k()) {
  PATHEST_CHECK(space_.num_labels() == ranking_.size(),
                "ranking size mismatch with path space");
  // The paper's "sum-based" method is sum ordering + cardinality ranking;
  // keep the short name for that standard combination.
  name_ = ranking_.rule() == RankingRule::kCardinality
              ? "sum-based"
              : std::string("sum-") + RankingRuleName(ranking_.rule());

  const SumStage3Index& index = tables_->index;
  key_scheme_ = index.scheme;
  key_bits_ = index.key_bits;
  cell_starts_ = index.cell_starts;
  keys_ = index.keys;
  offsets_ = index.offsets;
  nops_ = index.nops;
  cell_base_.resize(space_.k());
  uint64_t base = 0;
  for (uint64_t m = 1; m <= space_.k(); ++m) {
    cell_base_[m - 1] = base;
    base += m * space_.num_labels() - m + 1;
  }
}

uint64_t SumBasedOrdering::Rank(const LabelPath& path) const {
  RankScratch scratch;
  return Rank(path, scratch);
}

uint64_t SumBasedOrdering::Rank(const LabelPath& path,
                                RankScratch& scratch) const {
  PATHEST_CHECK(space_.Contains(path), "path outside space");
  const size_t m = path.length();

  uint32_t* ranks = scratch.ranks;
  uint64_t sr = 0;
  for (size_t i = 0; i < m; ++i) {
    ranks[i] = ranking_.RankOf(path.label(i));
    sr += ranks[i];
  }

  // Stage 1: all shorter lengths precede.
  uint64_t index = space_.LengthOffset(m);
  // Stage 2: all lower summed ranks precede — one prefix-table lookup.
  index += tables_->compositions.CumulativeBelow(sr, m);

  // Stage 3 key: order-free addition under kCounts; sorted pack (one
  // insertion sort) under kSorted.
  uint64_t key = 0;
  if (key_scheme_ == SumKeyScheme::kCounts) {
    key = SumEncodeKey(key_scheme_, static_cast<uint32_t>(key_bits_), ranks,
                       m);
  } else {
    uint32_t* combo = scratch.combo;
    for (size_t i = 0; i < m; ++i) combo[i] = ranks[i];
    // Insertion sort; m <= 16.
    for (size_t i = 1; i < m; ++i) {
      uint32_t v = combo[i];
      size_t j = i;
      while (j > 0 && combo[j - 1] > v) {
        combo[j] = combo[j - 1];
        --j;
      }
      combo[j] = v;
    }
    key = SumEncodeKey(key_scheme_, static_cast<uint32_t>(key_bits_), combo,
                       m);
  }

  // One branchless binary search (first key >= ours) over the cell's packed
  // keys, which also hands us the block's permutation count (w). The cell's
  // blocks live at [cell_starts_[c], cell_starts_[c+1]) in the flat arrays,
  // with c derived from (m, sr).
  const uint64_t cell = cell_base_[m - 1] + (sr - m);
  const uint64_t cell_begin = cell_starts_[cell];
  const uint64_t* keys = keys_.data() + cell_begin;
  size_t len = static_cast<size_t>(cell_starts_[cell + 1] - cell_begin);
  size_t lo = 0;
  while (len > 1) {
    const size_t half = len / 2;
    lo += keys[lo + half - 1] < key ? half : 0;
    len -= half;
  }
  PATHEST_CHECK(keys[lo] == key, "rank multiset missing from stage-three index");
  index += offsets_[cell_begin + lo];

  // Permutation position within the block (inverse of Algorithm 1),
  // branchless: with w the permutation count of the REMAINING multiset,
  // the block of permutations starting below head h is w * below / n_rem
  // and choosing h leaves w * eq / n_rem (both exact integers — see
  // RankPermutationCounts). Since the remaining multiset at position pos is
  // exactly the rank suffix ranks[pos..m), below/eq are plain compare-sums
  // over that suffix. No counts buffer, no data-dependent branches, no
  // divider unit (DivSmall).
  uint64_t w = nops_[cell_begin + lo];
  for (size_t pos = 0; pos < m; ++pos) {
    const uint32_t head = ranks[pos];
    const size_t n_rem = m - pos;
    uint64_t below = 0;
    uint64_t eq = 0;
    for (size_t j = pos; j < m; ++j) {
      below += ranks[j] < head;
      eq += ranks[j] == head;
    }
    index += DivSmall(w * below, n_rem);
    w = DivSmall(w * eq, n_rem);
  }
  return index;
}

LabelPath SumBasedOrdering::Unrank(uint64_t index) const {
  RankScratch scratch;
  return Unrank(index, scratch);
}

void SumBasedOrdering::DecodeKey(uint64_t key, size_t m,
                                 uint32_t* combo) const {
  const uint64_t num_labels = space_.num_labels();
  const uint64_t mask = (1ULL << key_bits_) - 1;
  size_t n = 0;
  if (key_scheme_ == SumKeyScheme::kCounts) {
    // Field v - 1 holds the multiplicity of rank v; walking the fields
    // from the bottom emits the ranks ascending.
    for (uint64_t v = 1; key != 0; ++v, key >>= key_bits_) {
      const uint64_t count = key & mask;
      PATHEST_CHECK(v <= num_labels && count <= m - n,
                    "stage-three key does not encode a rank multiset");
      for (uint64_t c = 0; c < count; ++c) {
        combo[n++] = static_cast<uint32_t>(v);
      }
    }
  } else {
    for (; n < m; ++n) {
      combo[n] = static_cast<uint32_t>((key >> (n * key_bits_)) & mask);
      PATHEST_CHECK(combo[n] >= 1 && combo[n] <= num_labels &&
                        (n == 0 || combo[n] >= combo[n - 1]),
                    "stage-three key does not encode a rank multiset");
    }
  }
  PATHEST_CHECK(n == m, "stage-three key does not encode a rank multiset");
}

LabelPath SumBasedOrdering::Unrank(uint64_t index,
                                   RankScratch& scratch) const {
  PATHEST_CHECK(index < space_.size(), "index out of range");
  // Stage 1: find the length partition (paper Algorithm 2, lines 5-9).
  size_t m = 1;
  while (index >= space_.CountWithLength(m)) {
    index -= space_.CountWithLength(m);
    ++m;
  }
  // Stage 2: find the summed-rank partition (lines 10-14) — binary search
  // over the composition prefix row instead of the paper's linear scan.
  const uint64_t sr = tables_->compositions.SumForOffset(index, m);
  index -= tables_->compositions.CumulativeBelow(sr, m);
  // Stage 3: find the combination (lines 15-18). A cell's blocks are
  // key-sorted, and key order is Formula 4's block order under both
  // schemes (the largest value whose multiplicity differs decides both),
  // so the offsets ascend too: one branchless binary search for the last
  // block starting at or before the index.
  const uint64_t cell = cell_base_[m - 1] + (sr - m);
  const uint64_t cell_begin = cell_starts_[cell];
  const uint64_t* offsets = offsets_.data() + cell_begin;
  size_t len = static_cast<size_t>(cell_starts_[cell + 1] - cell_begin);
  size_t lo = 0;
  while (len > 1) {
    const size_t half = len / 2;
    lo += offsets[lo + half] <= index ? half : 0;
    len -= half;
  }
  const uint64_t block = cell_begin + lo;
  index -= offsets[lo];
  PATHEST_CHECK(index < nops_[block],
                "index within sum partition but no combination");
  uint32_t* combo = scratch.combo;
  DecodeKey(keys_[block], m, combo);
  // Then the permutation within the block (lines 19-24, Algorithm 1).
  UnrankPermutationCounts(index, m, combo, fact_, scratch.ranks);
  LabelPath path;
  for (size_t i = 0; i < m; ++i) {
    path.PushBack(ranking_.LabelAt(scratch.ranks[i]));
  }
  return path;
}

}  // namespace pathest
