// pathest: exact path-selectivity computation (ground truth f(ℓ)).
//
// The selectivity f(ℓ) of a label path ℓ is the number of DISTINCT vertex
// pairs (vs, vt) connected by an ℓ-labeled path (paper Section 2). The
// evaluator walks the label-prefix trie depth-first; at each node it holds
// the distinct pair set of the prefix, grouped by source vertex, and
// extends it into ALL |L| children in one pass over the graph's
// vertex-major adjacency (FusedExtender, path/pair_set.h). Empty prefixes
// prune their whole subtree, which is what makes k = 6 tractable on sparse
// data. Resident are the whole level-2 layer (the prefix tasks' starting
// sets, each freed as its task completes) plus, per worker, one block of
// |L| sibling sets for each depth 3..k-1 of its current branch.
//
// Two-hop leaf pass (k >= 4): the last two levels of a prefix task are
// counted together. A per-build TwoHopIndex (path/pair_set.h) lists, for
// every vertex t, the distinct (u, a, b) with t -a-> x -b-> u; a depth
// k-2 node counts its |L| children with the 1-hop flat loop and all |L|²
// grandchildren with one flat loop over its members' two-hop keys, since
// R_lab(s) is the union of N_ab(t) over t in R_l(s). The children's pair
// sets are never built. It runs where the 1-hop flat loop would take every
// group of the node anyway (each below the size at which every label turns
// dense), so nodes with a dense group keep ExtendAll + CountAll. The index
// is built when k >= 4, the graph has packed edge keys, the kernel is not
// forced dense, both its key space and its size bound fit
// kPackedKeyMaxEntries, and a key tagged with its label pair fits 32 bits;
// otherwise every node takes the 1-hop path.
//
// Parallelism: any two distinct label-path PREFIXES root independent
// subtrees — they read the same immutable Graph and write DISJOINT slices
// of the canonical index space (a prefix's digits are the most significant
// radix digits of the canonical index, so its descendants of each length
// form one contiguous run). The build decomposes into depth-2 prefix tasks
// (root, l2): a parallel pre-pass builds every root's level-1 pair set and
// extends it into all |L| level-2 sets at once, then the |L|² tasks are
// dispatched heaviest-first (by their exact level-2 pair-set size) over
// the engine ThreadPool, whose atomic work queue lets idle workers steal
// the next-heaviest pending task. There is one EvalContext per worker and
// the result is bit-identical for every num_threads value.
//
// One driver: RefreshSelectivities runs that decomposition over a chosen
// set of roots and, under each, a chosen set of prefix tasks, rewriting
// their slices of an existing map. ComputeSelectivities is the case with
// a fresh map, every root and every task; the incremental refresh
// (maint/incremental.h) is the case with the roots and tasks an edge
// delta can have changed. The driver zeroes every slice it rewrites, so
// stale values never survive in a slice it runs.
//
// Kernels: each extension step deduplicates successors with either the
// sparse epoch kernel or the dense bitmap kernel, chosen per (source
// group, label) by a cost estimate (see path/pair_set.h); sparse groups
// run as one label-fused flat loop over packed (vertex, label) epoch keys
// — and over two-hop keys in the leaf pass above.
// SelectivityOptions::kernel forces a kernel for the identity tests only;
// it NEVER changes the computed map, only speed. The tests check every
// build against an independent serial oracle
// (tests/oracles/selectivity_oracle.h).

#ifndef PATHEST_PATH_SELECTIVITY_H_
#define PATHEST_PATH_SELECTIVITY_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/graph.h"
#include "path/label_path.h"
#include "path/pair_set.h"
#include "path/path_space.h"
#include "util/status.h"

namespace pathest {

/// \brief Dense map from every path in L_k to its exact selectivity.
class SelectivityMap {
 public:
  /// Builds an all-zero map over the given space.
  explicit SelectivityMap(PathSpace space);

  const PathSpace& space() const { return space_; }

  /// \brief f(ℓ). Path must be in the space.
  uint64_t Get(const LabelPath& path) const;

  /// \brief Sets f(ℓ).
  void Set(const LabelPath& path, uint64_t value);

  /// \brief Sets f of the path with the given canonical index. Inline: the
  /// evaluator's DFS maintains the canonical index incrementally (push =
  /// radix·|L| + l) and writes one entry per visited path-tree node.
  void SetByCanonicalIndex(uint64_t index, uint64_t value) {
    PATHEST_CHECK(index < values_.size(), "canonical index out of range");
    values_[index] = value;
  }

  /// \brief Zeroes `count` entries starting at canonical index `index`.
  /// The driver (RefreshSelectivities) clears the slices it rewrites.
  void ZeroRange(uint64_t index, uint64_t count);

  /// \brief Sum of all selectivities (diagnostics).
  uint64_t Total() const;

  /// \brief Number of paths with f > 0.
  uint64_t CountNonZero() const;

  /// \brief The raw canonical-indexed vector.
  const std::vector<uint64_t>& values() const { return values_; }

 private:
  PathSpace space_;
  std::vector<uint64_t> values_;
};

/// \brief Options for the exact evaluator.
struct SelectivityOptions {
  /// Abort with ResourceExhausted when a single prefix's distinct pair set
  /// exceeds this many pairs (0 = unlimited). Guards against dense graphs
  /// where |R| would approach |V|^2. Every length-1 prefix and every
  /// prefix shorter than k is checked; the returned error names the first
  /// violating prefix in the DFS pre-order (label order at every depth),
  /// so the reported status is deterministic and independent of
  /// num_threads, kernel and task order.
  uint64_t max_pairs_per_prefix = 0;

  /// Number of worker threads for the parallel fan-out. 1 (default) is
  /// fully serial and spawns no threads; 0 means one thread per hardware
  /// core. The computed SelectivityMap is bit-identical for every value:
  /// every task writes a disjoint slice of the map. The unit of fan-out is
  /// the depth-2 prefix task (root, l2), so useful parallelism reaches |L|²
  /// (see ResolvedNumThreads / SelectivityTaskCount).
  ///
  /// Memory: for k >= 3 the pre-pass keeps the WHOLE level-2 layer of pair
  /// sets resident (the prefix tasks' starting sets; each is freed as its
  /// task completes). For k >= 4 the build also holds the shared two-hop
  /// index (one u32 per unit of level-2 mass, bounded by
  /// kPackedKeyMaxEntries) and widens each worker's u32 epoch array to
  /// |V|·|L|² entries. On graphs where the level-2 selectivity mass is
  /// problematic, set max_pairs_per_prefix, which bounds every cell.
  size_t num_threads = 1;

  /// Extension-kernel selection (see path/pair_set.h). kAuto (default)
  /// decides per (source group, label) cell with an O(1) cost estimate:
  /// cells whose expected emission count (group size × the label's mean
  /// degree) covers the cost of a bitmap word scan with margin
  /// kDenseEmissionsPerWord (DenseGroupThreshold) run the dense bitmap
  /// kernel, everything else the sparse epoch kernel; a group stays on the
  /// flat sparse loop until every label is dense for it
  /// (BENCH_selectivity.json records auto against the better forced
  /// kernel per config).
  ///
  /// Test hook, not a tuning knob: kSparse / kDense force one kernel
  /// everywhere, for the identity tests (selectivity_differential_test,
  /// fused_selectivity_test) and the kernel sweep of
  /// bench_micro_selectivity --json. No CLI flag or environment variable
  /// reaches it.
  ///
  /// Kernel-selection contract: the computed SelectivityMap (and, on
  /// failure, the returned status) is bit-identical across all three values
  /// and across every num_threads — kAuto's choice depends only on the
  /// graph and the prefix's pair set, never on scheduling or prior scratch
  /// state. Only wall time differs. Enforced by
  /// tests/selectivity_differential_test.cc.
  PairKernel kernel = PairKernel::kAuto;

  /// Optional progress callback invoked after each root's subtree
  /// completes, once per root the driver runs, failing roots included:
  /// exactly num_labels times for ComputeSelectivities, once per touched
  /// root for an incremental refresh.
  ///
  /// Thread-safety guarantee: invocations are serialized behind an internal
  /// mutex (shared with `label_time`), so the callback may mutate shared
  /// state without its own locking. The COMPLETION ORDER of roots is
  /// unspecified, even with num_threads == 1: a root's prefix tasks are
  /// dispatched heaviest-first among all roots' tasks, so roots complete
  /// in an order that follows task weights, not label order.
  std::function<void(LabelId done_root)> progress;

  /// Optional timing sink: receives each run root's subtree evaluation
  /// time in milliseconds, immediately before `progress` fires for that
  /// root: the SUM of the root's pre-pass span and its prefix tasks' spans
  /// (which may overlap in wall time when parallel). Serialized behind the
  /// same mutex as `progress`.
  std::function<void(LabelId root, double millis)> label_time;
};

/// \brief The number of independent work items ComputeSelectivities fans
/// out for a (num_labels, k) build: num_labels² depth-2 prefix tasks when
/// k >= 3, num_labels roots below that (there is nothing under the
/// prefixes, and the pre-pass is per root).
size_t SelectivityTaskCount(size_t num_labels, size_t k);

/// \brief The worker count ComputeSelectivities actually uses for
/// `options` on a graph with `num_labels` labels at depth `k`: 0 resolves
/// to hardware concurrency, then clamps to SelectivityTaskCount (extra
/// workers would idle).
size_t ResolvedNumThreads(const SelectivityOptions& options,
                          size_t num_labels, size_t k);

/// \brief Computes f(ℓ) for every ℓ in L_k on `graph`: RefreshSelectivities
/// over a fresh map with every root and no filter.
Result<SelectivityMap> ComputeSelectivities(
    const Graph& graph, size_t k,
    const SelectivityOptions& options = SelectivityOptions{});

/// \brief Chooses the depth-2 prefix tasks one root re-runs. Called by
/// RefreshSelectivities after `root`'s pre-pass (healthy, non-empty level
/// 1, k >= 3) with the root's |L| fresh level-2 pair sets in `level2`; sets
/// dirty[l2] = 1 for every cell (root, l2) whose deeper slices must be
/// rewritten (`dirty` holds |L| zeroes on entry). Called concurrently for
/// distinct roots, so it must only read shared state.
using PrefixTaskFilter = std::function<void(
    LabelId root, const PairSet* level2, uint8_t* dirty)>;

/// \brief The selectivity driver: recomputes, on `graph`, the slices of
/// `map` under each root in `roots` (distinct labels) and leaves every
/// other root's slices as they are.
///
/// A run root gets its pre-pass: its length-1 entry and its whole length-2
/// block are rewritten (zeroed when the root's level-1 set is empty). Its
/// tasks are then selected — every cell when `filter` is empty or the
/// level-1 set is empty, else the cells `filter` marks — and each selected
/// cell's length-3..k slices are zeroed and, when its level-2 set is
/// non-empty and within the guard, recomputed by the cell's prefix task.
/// Unselected cells keep their deeper slices. `*tasks_run`, when given,
/// receives the number of prefix tasks run.
///
/// `map` then equals a full build on `graph` if every slice it keeps
/// already held its full-build value. `map` must cover graph.num_labels()
/// labels; its own k is the depth run.
/// Returns the first guard violation in DFS pre-order among the run roots
/// and tasks (the map is then partial); `options` callbacks fire once per
/// run root.
Status RefreshSelectivities(const Graph& graph,
                            const std::vector<LabelId>& roots,
                            const SelectivityOptions& options,
                            const PrefixTaskFilter& filter,
                            SelectivityMap* map, size_t* tasks_run = nullptr);

}  // namespace pathest

#endif  // PATHEST_PATH_SELECTIVITY_H_
