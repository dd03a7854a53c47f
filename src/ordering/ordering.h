// pathest: the Ordering interface — a bijection between L_k and
// [0, |L_k|) (paper Sections 2-3).
//
// An ordering method combines a ranking rule over base labels with an
// ordering rule over rank sequences. Concrete orderings:
//   numerical (ordering/numerical.h), lexicographical
//   (ordering/lexicographic.h), sum-based (ordering/sum_based.h),
//   ideal (ordering/ideal.h), and the L2 composite prototype
//   (ordering/composite.h). Use ordering/factory.h to construct by name.
//
// Query-time fast path — the scratch contract:
//
// Rank() is the per-query latency cost a serving estimator pays (the paper's
// Table 4). The scratch overload Rank(path, RankScratch&) is the fast path:
// a call performs ZERO heap allocations and returns a result bit-identical
// to Rank(path).
// The scratch is caller-owned so it can be reused across millions of queries
// (one per thread — a RankScratch must not be shared concurrently; the
// Ordering itself is immutable after construction and safe to share across
// any number of reader threads). The base-class default simply forwards to
// the plain Rank(), which is already allocation-free for every ordering;
// SumBasedOrdering overrides it with its table-driven fast path (and its
// plain Rank() runs that path on a local scratch). core/estimator.h adds a
// type-tagged dispatch over kind() on top, so the closed-form orderings
// (numerical / lexicographic / gray) are also called without a virtual
// hop.

#ifndef PATHEST_ORDERING_ORDERING_H_
#define PATHEST_ORDERING_ORDERING_H_

#include <cstdint>
#include <memory>
#include <string>

#include "path/label_path.h"
#include "path/path_space.h"

namespace pathest {

/// \brief Concrete ordering family, used by the serving estimator to
/// dispatch Rank without a virtual call (core/estimator.h). kGeneric covers
/// the explicit-permutation baselines (ideal / random / composite), which
/// stay on the virtual path.
enum class OrderingKind {
  kNumerical,
  kLexicographic,
  kGray,
  kSumBased,
  kGeneric,
};

/// \brief Caller-owned buffers for the allocation-free Rank fast path:
/// fixed-size arrays, so a RankScratch never allocates.
struct RankScratch {
  /// Per-position base-label ranks of the query path.
  uint32_t ranks[kMaxPathLength];
  /// The sorted rank multiset (combination) of the query path.
  uint32_t combo[kMaxPathLength];

  /// \brief No-op. No ordering needs scratch sized by the label set any
  /// more; the method stays for callers written against the earlier
  /// contract, which sized a per-label buffer here.
  void Reserve(size_t num_labels) { (void)num_labels; }
};

/// \brief Bijection between label paths and histogram-domain indexes.
///
/// Implementations must satisfy, for every path p in the space and every
/// index i in [0, size()):
///   Unrank(Rank(p)) == p  and  Rank(Unrank(i)) == i.
class Ordering {
 public:
  virtual ~Ordering() = default;

  /// \brief Human-readable method name, e.g. "num-card" or "sum-based".
  virtual const std::string& name() const = 0;

  /// \brief index(ℓ): the domain position of `path`. Path must lie in
  /// space().
  virtual uint64_t Rank(const LabelPath& path) const = 0;

  /// \brief Fast-path Rank on caller-owned scratch (see the scratch contract
  /// in the file header): bit-identical to Rank(path), and allocation-free.
  virtual uint64_t Rank(const LabelPath& path, RankScratch& scratch) const {
    (void)scratch;
    return Rank(path);
  }

  /// \brief The path at domain position `index` (< size()).
  virtual LabelPath Unrank(uint64_t index) const = 0;

  /// \brief The underlying path space L_k.
  virtual const PathSpace& space() const = 0;

  /// \brief Family tag for devirtualized dispatch (core/estimator.h).
  virtual OrderingKind kind() const { return OrderingKind::kGeneric; }

  /// \brief Domain size |L_k|.
  uint64_t size() const { return space().size(); }
};

using OrderingPtr = std::unique_ptr<Ordering>;

}  // namespace pathest

#endif  // PATHEST_ORDERING_ORDERING_H_
