// pathest: per-worker evaluation context — the scratch arena one worker
// thread needs to evaluate root-label subtrees of the selectivity DFS.
//
// The exact evaluator's working state is three scratch structures (a
// distinct-marking Marker, a fused LeafCounter, and one reusable PairSet
// per DFS depth). None of them is thread-safe, and all of them are
// expensive to allocate relative to a single DFS step — so the engine owns
// exactly one EvalContext per worker, allocated once up front, and every
// root subtree dispatched to that worker reuses it. Two workers never share
// a context; one worker never runs two subtrees concurrently. That is the
// entire synchronization story of the parallel evaluator: contexts are
// disjoint, output slices are disjoint, nothing else is written.

#ifndef PATHEST_ENGINE_EVAL_CONTEXT_H_
#define PATHEST_ENGINE_EVAL_CONTEXT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "path/pair_set.h"
#include "util/bitset.h"

namespace pathest {

/// \brief One worker's scratch arena for selectivity evaluation.
///
/// Reusable across any number of sequential evaluations on graphs with at
/// most `num_vertices` vertices / `num_labels` labels and DFS depth at most
/// `k`; results are independent of prior use (every structure is
/// epoch-reset, cleared, or rebound at the start of each scope). Everything
/// a subtree evaluation touches is pre-allocated here, so the DFS — and in
/// particular the penultimate-level leaf pass, the hottest loop — performs
/// no allocation at all.
struct EvalContext {
  EvalContext(size_t num_vertices, size_t num_labels, size_t k)
      : marker(num_vertices),
        leaf_counter(num_vertices, num_labels),
        fused(num_vertices, num_labels),
        extend_bits(num_vertices),
        levels(k + 1),
        blocks(k + 1, std::vector<PairSet>(num_labels)),
        fwd_views(num_labels),
        leaf_counts(num_labels, 0) {}

  Marker marker;
  LeafCounter leaf_counter;
  /// The fused all-labels kernel's scratch (per-label bitsets, the flat
  /// epoch array or emission arenas) and its binding to the graph's
  /// vertex-major view and packed edge keys; rebound per evaluation scope.
  FusedExtender fused;
  /// Dense-kernel accumulator for ExtendPairSet; all-zero between uses
  /// (the kernel's drain restores that invariant).
  DynamicBitset extend_bits;
  /// One reusable PairSet per DFS depth (1-based level); levels[0] unused.
  /// The per-label DFS's working sets; the fused task path uses levels[1]
  /// and levels[2] for its root/starting sets.
  std::vector<PairSet> levels;
  /// The fused DFS's per-depth CHILD BLOCKS: blocks[d][l] holds the pair
  /// set of the depth-d child with last label l, all |L| siblings
  /// materialized together by one ExtendAll pass. blocks[0..2] unused (the
  /// task's starting set lives in the shared level-2 block).
  std::vector<std::vector<PairSet>> blocks;
  /// Hoisted per-label ForwardViews, rebound once per root subtree by
  /// EvaluateRootSubtree — the leaf pass reads them instead of calling
  /// Graph::ForwardView once per (node, label).
  std::vector<Graph::CsrView> fwd_views;
  /// Per-label counts buffer of the fused leaf pass (one entry per label),
  /// zero-filled by the DFS before each use.
  std::vector<uint64_t> leaf_counts;
};

}  // namespace pathest

#endif  // PATHEST_ENGINE_EVAL_CONTEXT_H_
