// pathest: per-worker counter arrays on cache lines of their own.
//
// The selectivity engine's hot counters (EvalContext::leaf_counts and its
// FusedExtender's flat and two-hop counts) are bumped once per edge by one
// worker each. As plain heap blocks of a few dozen bytes, two workers'
// arrays can land in one 64-byte line, depending on heap history; every
// bump then invalidates the other core's copy of the line (false sharing).
// LineCounts starts its block on a line boundary and rounds it up to whole
// lines, so no other heap object shares a line with it.

#ifndef PATHEST_UTIL_LINE_COUNTS_H_
#define PATHEST_UTIL_LINE_COUNTS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>

namespace pathest {

inline constexpr size_t kCacheLineBytes = 64;

/// \brief A zeroed array of u64 counters on whole cache lines of its own.
class LineCounts {
 public:
  LineCounts() = default;
  explicit LineCounts(size_t n) { Assign(n); }

  /// \brief Resizes to `n` counters, all zero. Reallocates only to grow.
  void Assign(size_t n) {
    constexpr size_t kPerLine = kCacheLineBytes / sizeof(uint64_t);
    const size_t lines = (n + kPerLine - 1) / kPerLine;
    if (lines > lines_) {
      data_.reset(static_cast<uint64_t*>(::operator new(
          lines * kCacheLineBytes, std::align_val_t{kCacheLineBytes})));
      lines_ = lines;
    }
    size_ = n;
    std::fill_n(data_.get(), lines_ * kPerLine, uint64_t{0});
  }

  uint64_t* data() { return data_.get(); }
  const uint64_t* data() const { return data_.get(); }
  size_t size() const { return size_; }
  /// \brief Bytes of the owned block: whole lines, at least size() * 8.
  size_t block_bytes() const { return lines_ * kCacheLineBytes; }

 private:
  struct Free {
    void operator()(uint64_t* p) const {
      ::operator delete(p, std::align_val_t{kCacheLineBytes});
    }
  };
  std::unique_ptr<uint64_t, Free> data_;
  size_t size_ = 0;
  size_t lines_ = 0;
};

}  // namespace pathest

#endif  // PATHEST_UTIL_LINE_COUNTS_H_
