// pathest: per-worker evaluation context — the scratch arena one worker
// thread needs to evaluate root pre-passes and prefix tasks of the
// selectivity DFS.
//
// The exact evaluator's working state is a set of scratch structures: the
// FusedExtender, the root's level-1 pair set and the per-depth child
// blocks. None of them is thread-safe, and all of them are expensive to
// allocate relative to a single DFS step — so the engine owns exactly one
// EvalContext per worker, allocated once up front, and every pre-pass or
// task dispatched to that worker reuses it. Two workers never share a
// context; one worker never runs two tasks concurrently. The one
// structure workers do share is the build's TwoHopIndex
// (path/pair_set.h), which every context's FusedExtender reads and none
// writes. That is the entire synchronization story of the parallel
// evaluator: contexts are disjoint, output slices are disjoint, shared
// inputs are immutable.

#ifndef PATHEST_ENGINE_EVAL_CONTEXT_H_
#define PATHEST_ENGINE_EVAL_CONTEXT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "path/pair_set.h"
#include "util/line_counts.h"

namespace pathest {

/// \brief One worker's scratch arena for selectivity evaluation.
///
/// Reusable across any number of sequential evaluations on graphs with at
/// most `num_vertices` vertices / `num_labels` labels and DFS depth at most
/// `k`; results are independent of prior use (every structure is
/// epoch-reset, cleared, or rebound at the start of each scope). Everything
/// a task touches is pre-allocated here or by the first FusedExtender::Bind,
/// so the DFS — and in particular the leaf passes, the hottest loops —
/// allocates only while a reused PairSet grows past its high-water
/// capacity.
struct EvalContext {
  EvalContext(size_t num_vertices, size_t num_labels, size_t k)
      : fused(num_vertices, num_labels),
        blocks(k > 3 ? k - 3 : 0, std::vector<PairSet>(num_labels)),
        leaf_counts(num_labels) {}

  /// The fused all-labels kernel's scratch (per-label bitsets, the flat
  /// epoch array or emission arenas) and its binding to the graph's
  /// vertex-major view, packed edge keys and — for k >= 4 — the build's
  /// shared two-hop index; bound once per build.
  FusedExtender fused;
  /// The root pre-pass's level-1 pair set (the label's edge set).
  PairSet level1;
  /// The DFS's per-depth CHILD BLOCKS: blocks[d - 3][l] holds the pair set
  /// of the depth-d child with last label l, all |L| siblings materialized
  /// together by one ExtendAll pass, for 3 <= d <= k - 1 (depth 2 is the
  /// task's starting set, in the shared level-2 block, and depth k is only
  /// ever counted). Where the two-hop leaf pass runs, the depth k - 1 block
  /// is not built either: it stays empty on graphs whose depth k - 2 nodes
  /// all take that pass.
  std::vector<std::vector<PairSet>> blocks;
  /// Per-label counts buffer of the 1-hop leaf passes (one entry per
  /// label), zero-filled by the DFS before each use, on cache lines of its
  /// own so neighbouring workers' counters never share one. The two-hop
  /// pass counts into its FusedExtender's own |L|² buffer.
  LineCounts leaf_counts;
};

}  // namespace pathest

#endif  // PATHEST_ENGINE_EVAL_CONTEXT_H_
