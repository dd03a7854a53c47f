// pathest: incremental statistics rebuild — re-evaluate ONLY the
// selectivity-map slices an edge delta can have changed.
//
// The selectivity build (path/selectivity.h) decomposes into a per-root
// pre-pass plus |L|² depth-2 prefix tasks (root, l₂), each writing a
// disjoint canonical-index slice, and has one driver,
// RefreshSelectivities, which runs a chosen set of roots and, under each,
// a chosen set of tasks over an existing map. The full build is that
// driver with every root and every task on a fresh map. A refresh is the
// same driver on a copy of the old map, with the roots and tasks a batch
// of edge deltas can have changed: this file owns only that choice (the
// analysis below) and makes one call. Equality with a full rebuild on the
// patched graph is exact (the map holds exact uint64 counts), and the
// differential runner (tests/selectivity_differential_test.cc) enforces it
// across kernels × thread counts. A batch that dirties every task is the
// full build, run over the old map.
//
// Dirtiness analysis. Let D = the set of labels carried by some delta
// edge, and U = the set of delta-edge SOURCE vertices. Define the
// backward cone C_j = vertices from which some u ∈ U is reachable within
// ≤ j hops over ANY label, computed on the UNION graph (patched graph
// plus the removed delta edges) so it covers paths that existed only
// before a removal as well as paths that exist only after an addition.
//
//   * A path of length ≤ k changes selectivity only if it can route
//     through a delta edge. If its root label r ∉ D, the delta edge sits
//     at position ≥ 2, so some level-1 target of r must reach a delta
//     source within ≤ k-2 hops: root r is TOUCHED iff r ∈ D or
//     targets(r) ∩ C_{k-2} ≠ ∅. Untouched roots are skipped entirely.
//   * Within a touched root with r ∉ D, the level-1 pair set is unchanged
//     (it is label r's edge list), and cell (r, l₂)'s level-2 set is
//     unchanged unless an l₂-labeled delta starts at a level-1 target.
//     The cell's DEEPER slices change only if the delta edge sits at
//     position ≥ 3: targets(level2(r,l₂)) ∩ C_{k-3} ≠ ∅. A cell failing
//     both tests is CLEAN and keeps its old subtree verbatim.
//   * r ∈ D dirties the whole root (its level-1 set changed, hence every
//     level-2 set derived from it).
//
// Who zeroes what: the driver. A touched root's length-1 entry and
// length-2 block are rewritten by its pre-pass; every dirty cell's deeper
// slices are zeroed (the DFS prunes empty children, assuming zeroed
// entries) and re-run against the patched graph, and a dirty cell whose
// new level-2 set is empty stays zeroed. A touched root whose level-1 set
// became empty has every cell dirty. Tests (a) and (b) run in the driver's
// per-root hook (PrefixTaskFilter), after the root's pre-pass has built
// the new level-2 sets. The cone tests over-approximate (a vertex may
// reach U without any actual path using the delta edge), which costs
// redundant recomputation, never correctness.

#ifndef PATHEST_MAINT_INCREMENTAL_H_
#define PATHEST_MAINT_INCREMENTAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "maint/delta_journal.h"
#include "path/selectivity.h"
#include "util/status.h"

namespace pathest {
namespace maint {

/// \brief One edge mutation, label already resolved against the graph's
/// dictionary.
struct EdgeDelta {
  bool add = true;  ///< false = remove
  VertexId src = 0;
  VertexId dst = 0;
  LabelId label = 0;

  bool operator==(const EdgeDelta&) const = default;
};

/// \brief Extracts the edge mutations from a journal record stream, in
/// order (barriers and compaction markers are skipped).
std::vector<EdgeDelta> EdgeDeltasFromRecords(
    const std::vector<DeltaRecord>& records);

/// \brief Applies `deltas` (in order, last-op-wins per edge triple, set
/// semantics) to `graph` and builds the patched graph with the same
/// reverse-CSR setting. New vertices referenced by added edges grow the
/// vertex range; a delta naming a label id outside the dictionary is
/// InvalidArgument (new labels would change the PathSpace dimensions —
/// callers resolve label NAMES before journaling). Replay is idempotent:
/// adding a present edge or removing an absent one is a no-op.
Result<Graph> PatchGraph(const Graph& graph,
                         const std::vector<EdgeDelta>& deltas,
                         size_t num_threads = 1);

/// \brief Work accounting of one incremental rebuild (observability; the
/// serve daemon folds these into `stats`).
struct IncrementalStats {
  size_t num_deltas = 0;
  size_t touched_roots = 0;   ///< roots whose pre-pass re-ran
  size_t total_roots = 0;     ///< |L|
  size_t dirty_tasks = 0;     ///< depth-2 prefix tasks re-evaluated
  size_t total_tasks = 0;     ///< |L|² when k >= 3, else 0
  size_t cone_vertices = 0;   ///< |C_{k-2}| — the dirtiness frontier
};

/// \brief Rebuilds the selectivity map after `deltas`, re-evaluating only
/// dirtied slices of `old_map` (see file comment). `patched` MUST be the
/// graph `old_map` was computed on with `deltas` applied (PatchGraph), and
/// `options.max_pairs_per_prefix` must match the original build (a clean
/// task is never re-checked against a smaller guard). The result equals a
/// full ComputeSelectivities(patched, k, options) bit-for-bit — including,
/// on guard violations, returning the same DFS-order-first error.
///
/// `options.num_threads` parallelizes the touched roots and dirty tasks
/// exactly like the full build (bit-identical at every thread count);
/// `options.progress` and `label_time` fire once per touched root.
Result<SelectivityMap> IncrementalSelectivities(
    const Graph& patched, const SelectivityMap& old_map,
    const std::vector<EdgeDelta>& deltas, const SelectivityOptions& options,
    IncrementalStats* stats = nullptr);

}  // namespace maint
}  // namespace pathest

#endif  // PATHEST_MAINT_INCREMENTAL_H_
