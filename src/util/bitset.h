// pathest: DynamicBitset — a fixed-capacity bit set with word-parallel
// operations, the scratch structure behind the evaluator's dense extension
// kernel (path/pair_set.h).
//
// The dense kernel's access pattern drives the API: successors are
// accumulated with blind single-bit ORs (duplicates are free — no branch,
// no read-check), then drained either as a popcount total or as an
// ascending word scan that emits set positions and zeroes each word on the
// way out, so the structure is all-zero again when the scan finishes and
// reset costs nothing between uses. One bit per vertex is 32× denser than
// a u32 slot of the sparse kernel's epoch array (FusedExtender), which is
// what lets dense target sets stay cache-resident.

#ifndef PATHEST_UTIL_BITSET_H_
#define PATHEST_UTIL_BITSET_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pathest {

/// \brief Fixed-capacity bit set over positions [0, num_bits).
///
/// Scratch, not a value: reusable across any number of accumulate/drain
/// cycles and not thread-safe — parallel callers own disjoint instances
/// (see engine/eval_context.h). The draining operations (CountAndClear,
/// ExtractAndClear) restore the all-zero state, which is the invariant
/// every kernel relies on between source groups.
class DynamicBitset {
 public:
  DynamicBitset() = default;
  explicit DynamicBitset(size_t num_bits) { Reset(num_bits); }

  /// \brief Resizes to `num_bits` positions and clears every bit.
  void Reset(size_t num_bits);

  size_t num_bits() const { return num_bits_; }
  size_t num_words() const { return words_.size(); }

  /// \brief True when bit `i` is set. i must be < num_bits().
  bool Test(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & uint64_t{1};
  }

  /// \brief Sets bit `i`; returns true when it was previously clear.
  bool SetBit(size_t i) {
    uint64_t& word = words_[i >> 6];
    const uint64_t mask = uint64_t{1} << (i & 63);
    if (word & mask) return false;
    word |= mask;
    return true;
  }

  /// \brief Branch-free set: duplicates cost one OR and nothing else. The
  /// hot-kernel variant — distinctness is recovered later by the drain.
  void SetBitBlind(size_t i) { words_[i >> 6] |= uint64_t{1} << (i & 63); }

  /// \brief Word-level union: this |= other. Capacities must match.
  void UnionWith(const DynamicBitset& other);

  /// \brief Raw word-level union of an external bitmap row: words_[i] |=
  /// words[i] for i in [0, n). n must be <= num_words(). The fused
  /// kernel's row accumulate — a plain loop the compiler vectorizes, so a
  /// whole adjacency row ORs in at a handful of SIMD ops instead of one
  /// read-modify-write per edge.
  void OrWords(const uint64_t* words, size_t n) {
    uint64_t* w = words_.data();
    for (size_t i = 0; i < n; ++i) w[i] |= words[i];
  }

  /// \brief Number of set bits.
  uint64_t Count() const;

  /// \brief Popcount total and zero in one pass, leaving the set empty.
  uint64_t CountAndClear();

  /// \brief Zeroes every word.
  void ClearAll();

  /// \brief Calls fn(i) for every set bit, in ascending order.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (size_t wi = 0; wi < words_.size(); ++wi) {
      uint64_t word = words_[wi];
      while (word != 0) {
        fn((wi << 6) + static_cast<size_t>(std::countr_zero(word)));
        word &= word - 1;
      }
    }
  }

  /// \brief Ascending emission with free reset: like ForEachSetBit, but each
  /// word is zeroed as soon as its bits have been emitted, so the set is
  /// empty when the scan returns. The dense kernel's drain.
  template <typename Fn>
  void ExtractAndClear(Fn&& fn) {
    for (size_t wi = 0; wi < words_.size(); ++wi) {
      uint64_t word = words_[wi];
      if (word == 0) continue;
      words_[wi] = 0;
      do {
        fn((wi << 6) + static_cast<size_t>(std::countr_zero(word)));
        word &= word - 1;
      } while (word != 0);
    }
  }

  /// \brief Word-scan iterator over set bit positions, ascending. Enables
  /// range-for over the set; invalidated by any mutation.
  class ConstIterator {
   public:
    using value_type = size_t;
    using difference_type = ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    size_t operator*() const {
      return (word_index_ << 6) + static_cast<size_t>(std::countr_zero(word_));
    }
    ConstIterator& operator++() {
      word_ &= word_ - 1;
      SkipEmptyWords();
      return *this;
    }
    ConstIterator operator++(int) {
      ConstIterator tmp = *this;
      ++*this;
      return tmp;
    }
    bool operator==(const ConstIterator& other) const {
      return word_index_ == other.word_index_ && word_ == other.word_;
    }
    bool operator!=(const ConstIterator& other) const {
      return !(*this == other);
    }

   private:
    friend class DynamicBitset;
    ConstIterator(const std::vector<uint64_t>* words, size_t word_index)
        : words_(words),
          word_index_(word_index),
          word_(word_index < words->size() ? (*words)[word_index] : 0) {
      SkipEmptyWords();
    }
    void SkipEmptyWords() {
      while (word_ == 0 && word_index_ + 1 < words_->size()) {
        word_ = (*words_)[++word_index_];
      }
      if (word_ == 0) word_index_ = words_->size();  // normalize to end()
    }

    const std::vector<uint64_t>* words_;
    size_t word_index_;
    uint64_t word_;
  };

  ConstIterator begin() const { return ConstIterator(&words_, 0); }
  ConstIterator end() const { return ConstIterator(&words_, words_.size()); }

 private:
  size_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace pathest

#endif  // PATHEST_UTIL_BITSET_H_
