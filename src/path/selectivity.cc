#include "path/selectivity.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <mutex>
#include <numeric>
#include <utility>

#include "engine/eval_context.h"
#include "engine/schedule.h"
#include "engine/thread_pool.h"
#include "path/pair_set.h"
#include "util/timer.h"

namespace pathest {

SelectivityMap::SelectivityMap(PathSpace space)
    : space_(space), values_(space.size(), 0) {}

uint64_t SelectivityMap::Get(const LabelPath& path) const {
  return values_[space_.CanonicalIndex(path)];
}

void SelectivityMap::Set(const LabelPath& path, uint64_t value) {
  values_[space_.CanonicalIndex(path)] = value;
}

void SelectivityMap::ZeroRange(uint64_t index, uint64_t count) {
  PATHEST_CHECK(index <= values_.size() && count <= values_.size() - index,
                "zero range out of bounds");
  std::fill_n(values_.begin() + static_cast<ptrdiff_t>(index), count,
              uint64_t{0});
}

uint64_t SelectivityMap::Total() const {
  uint64_t total = 0;
  for (uint64_t v : values_) total += v;
  return total;
}

uint64_t SelectivityMap::CountNonZero() const {
  uint64_t count = 0;
  for (uint64_t v : values_) count += (v != 0);
  return count;
}

namespace {

Status PairLimitExceeded(const LabelPath& path) {
  return Status::ResourceExhausted(
      "pair set exceeds max_pairs_per_prefix at path " + path.ToIdString());
}

struct FusedDfs {
  const Graph* graph;
  const SelectivityOptions* options;
  SelectivityMap* map;
  EvalContext* ctx;
  size_t k;
};

// Recursively evaluates all extensions of `path` (whose non-empty pair set
// is `parent`) with the fused all-labels kernel: one ExtendAll/CountAll
// pass materializes or counts ALL |L| children of the node at once, then
// the interior children are visited depth-first. `radix` is the canonical
// radix of `path` — the DFS maintains the canonical index incrementally
// (child = radix * |L| + l, offset by the child length's base) instead of
// recomputing the O(k) PathSpace::CanonicalIndex at every node; the
// asserts check agreement with the recomputed index in NDEBUG-off builds.
Status FusedDfsExtend(FusedDfs* r, LabelPath* path, const PairSet& parent,
                      uint64_t radix) {
  const size_t depth = path->length();
  const size_t num_labels = r->graph->num_labels();
  const PathSpace& space = r->map->space();
  const uint64_t child_base =
      space.LengthOffset(depth + 1) + radix * num_labels;
  if (depth + 1 == r->k) {
    uint64_t* counts = r->ctx->leaf_counts.data();
    std::fill_n(counts, num_labels, uint64_t{0});
    r->ctx->fused.CountAll(parent, counts);
    for (LabelId l = 0; l < num_labels; ++l) {
#ifndef NDEBUG
      path->PushBack(l);
      assert(child_base + l == space.CanonicalIndex(*path));
      path->PopBack();
#endif
      r->map->SetByCanonicalIndex(child_base + l, counts[l]);
    }
    return Status::OK();
  }
  if (depth + 2 == r->k && r->ctx->fused.TwoHopCovers(parent)) {
    // Two-hop leaf pass: the children's counts from CountAll, then all
    // |L|² grandchild counts from one walk over the two-hop keys; the
    // children's pair sets are never built. The guard checks the children
    // in label order, as the interior path below does.
    uint64_t* counts = r->ctx->leaf_counts.data();
    std::fill_n(counts, num_labels, uint64_t{0});
    r->ctx->fused.CountAll(parent, counts);
    for (LabelId l = 0; l < num_labels; ++l) {
      path->PushBack(l);
      assert(child_base + l == space.CanonicalIndex(*path));
      r->map->SetByCanonicalIndex(child_base + l, counts[l]);
      if (r->options->max_pairs_per_prefix != 0 &&
          counts[l] > r->options->max_pairs_per_prefix) {
        return PairLimitExceeded(*path);
      }
      path->PopBack();
    }
    const uint64_t* pair_counts = r->ctx->fused.CountAll2(parent);
    const uint64_t grandchild_base =
        space.LengthOffset(depth + 2) + radix * num_labels * num_labels;
    for (uint64_t ab = 0; ab < num_labels * num_labels; ++ab) {
#ifndef NDEBUG
      path->PushBack(static_cast<LabelId>(ab / num_labels));
      path->PushBack(static_cast<LabelId>(ab % num_labels));
      assert(grandchild_base + ab == space.CanonicalIndex(*path));
      path->PopBack();
      path->PopBack();
#endif
      r->map->SetByCanonicalIndex(grandchild_base + ab, pair_counts[ab]);
    }
    return Status::OK();
  }
  // Interior: the whole child block at depth+1 is built in one pass; the
  // recursion below only ever writes blocks at depth+2 and deeper, so the
  // block stays intact while its members are visited.
  PairSet* children = r->ctx->blocks[depth - 2].data();
  r->ctx->fused.ExtendAll(parent, children);
  for (LabelId l = 0; l < num_labels; ++l) {
    const uint64_t child_size = children[l].size();
    path->PushBack(l);
    assert(child_base + l == space.CanonicalIndex(*path));
    r->map->SetByCanonicalIndex(child_base + l, child_size);
    if (r->options->max_pairs_per_prefix != 0 &&
        child_size > r->options->max_pairs_per_prefix) {
      return PairLimitExceeded(*path);
    }
    if (child_size > 0) {
      PATHEST_RETURN_NOT_OK(
          FusedDfsExtend(r, path, children[l], radix * num_labels + l));
    }
    path->PopBack();
  }
  return Status::OK();
}

// Phase A of one root: builds its level-1 pair set into `ctx.level1`,
// writes the length-1 entry and the root's whole length-2 block, and — for
// k >= 3 with a non-empty level 1 — extends into `level2_cells` (the root's
// |L| prefix-task starting sets), recording per-cell guard violations in
// `cell_status`. Returns the root's own guard status (a level-1 violation
// skips level 2 entirely).
Status RootPrepass(const Graph& graph, EvalContext& ctx, LabelId root,
                   size_t k, const SelectivityOptions& options,
                   SelectivityMap* map, PairSet* level2_cells,
                   Status* cell_status) {
  const size_t num_labels = graph.num_labels();
  const PathSpace& space = map->space();
  const uint64_t max_pairs = options.max_pairs_per_prefix;
  InitialPairSet(graph, root, &ctx.level1);
  const uint64_t level1_size = ctx.level1.size();
  const uint64_t root_index = space.LengthOffset(1) + root;
  assert(root_index == space.CanonicalIndex(LabelPath{root}));
  map->SetByCanonicalIndex(root_index, level1_size);
  if (max_pairs != 0 && level1_size > max_pairs) {
    return PairLimitExceeded(LabelPath{root});
  }
  if (k < 2) return Status::OK();
  const uint64_t child_base = space.LengthOffset(2) + root * num_labels;
  if (level1_size == 0) {
    map->ZeroRange(child_base, num_labels);
  } else if (k == 2) {
    uint64_t* counts = ctx.leaf_counts.data();
    std::fill_n(counts, num_labels, uint64_t{0});
    ctx.fused.CountAll(ctx.level1, counts);
    for (LabelId l = 0; l < num_labels; ++l) {
      map->SetByCanonicalIndex(child_base + l, counts[l]);
    }
  } else {
    ctx.fused.ExtendAll(ctx.level1, level2_cells);
    for (LabelId l = 0; l < num_labels; ++l) {
      const uint64_t size = level2_cells[l].size();
      map->SetByCanonicalIndex(child_base + l, size);
      if (max_pairs != 0 && size > max_pairs) {
        cell_status[l] = PairLimitExceeded(LabelPath{root, l});
      }
    }
  }
  return Status::OK();
}

// Phase B: the DFS over every extension of the depth-2 prefix (root, l2)
// whose non-empty pair set is `level2`, writing each length-3..k entry
// under it. The DFS prunes empty children without visiting them, so the
// prefix's slices must be zero on entry (ZeroPrefixSubtree). Requires
// k >= 3.
Status PrefixTask(const Graph& graph, EvalContext& ctx, LabelId root,
                  LabelId l2, const PairSet& level2, size_t k,
                  const SelectivityOptions& options, SelectivityMap* map) {
  LabelPath path{root, l2};
  FusedDfs r{&graph, &options, map, &ctx, k};
  const uint64_t radix =
      static_cast<uint64_t>(root) * graph.num_labels() + l2;
  return FusedDfsExtend(&r, &path, level2, radix);
}

// Zeroes every length-3..k entry under the depth-2 prefix (root, l2):
// exactly the write slices of its PrefixTask.
void ZeroPrefixSubtree(LabelId root, LabelId l2, SelectivityMap* map) {
  const PathSpace& space = map->space();
  const uint64_t num_labels = space.num_labels();
  const uint64_t cell = static_cast<uint64_t>(root) * num_labels + l2;
  // The prefix's digits are the most significant radix digits of the
  // canonical index, so its length-d descendants are one contiguous run of
  // |L|^(d-2) entries starting at cell * |L|^(d-2) within length d's block.
  uint64_t stride = 1;
  for (size_t d = 3; d <= space.k(); ++d) {
    stride *= num_labels;
    map->ZeroRange(space.LengthOffset(d) + cell * stride, stride);
  }
}

}  // namespace

size_t SelectivityTaskCount(size_t num_labels, size_t k) {
  return k >= 3 ? num_labels * num_labels : num_labels;
}

size_t ResolvedNumThreads(const SelectivityOptions& options,
                          size_t num_labels, size_t k) {
  const size_t requested = options.num_threads == 0
                               ? ThreadPool::DefaultThreads()
                               : options.num_threads;
  // Tasks are the unit of fan-out; extra workers would idle.
  return std::min(requested, SelectivityTaskCount(num_labels, k));
}

// A parallel per-root pre-pass (level-1 sets, fused extension into the
// shared level-2 blocks, task selection and zeroing, exact task weights)
// followed by the selected depth-2 prefix tasks (root, l2), dispatched
// heaviest-first over the pool's atomic work queue so idle workers steal
// the next-heaviest pending task. Every write target (map slices, level-2
// block slices, per-root/per-cell status and selection slots) is
// disjoint; the returned status is the first failure in DFS pre-order.
Status RefreshSelectivities(const Graph& graph,
                            const std::vector<LabelId>& roots,
                            const SelectivityOptions& options,
                            const PrefixTaskFilter& filter,
                            SelectivityMap* map, size_t* tasks_run) {
  const size_t k = map->space().k();
  const size_t num_labels = map->space().num_labels();
  PATHEST_CHECK(num_labels == graph.num_labels(),
                "map and graph disagree on the label count");
  if (tasks_run != nullptr) *tasks_run = 0;
  if (roots.empty()) return Status::OK();
  const size_t num_threads = ResolvedNumThreads(options, num_labels, k);

  std::vector<Status> root_status(num_labels);  // level-1 guard violations
  const size_t num_cells = k >= 3 ? num_labels * num_labels : 0;
  std::vector<Status> cell_status(num_cells);
  std::vector<uint8_t> selected(num_cells, 0);
  // Shared level-2 pair sets, one slice of |L| cells per root. Holding the
  // whole level resident (instead of one branch) is what lets the tasks
  // start anywhere; total size is the level-2 selectivity mass, and the
  // max_pairs_per_prefix guard bounds each cell.
  std::vector<PairSet> level2(num_cells);
  std::vector<double> root_ms(num_labels, 0.0);
  std::vector<size_t> root_pending(num_labels, 0);
  std::mutex callback_mu;  // serializes progress/label_time + accounting

  std::unique_ptr<ThreadPool> pool;
  std::vector<EvalContext> contexts;
  if (num_threads > 1) {
    pool = std::make_unique<ThreadPool>(num_threads);
    contexts.reserve(pool->num_threads());
    for (size_t w = 0; w < pool->num_threads(); ++w) {
      contexts.emplace_back(graph.num_vertices(), num_labels, k);
    }
  } else {
    contexts.emplace_back(graph.num_vertices(), num_labels, k);
  }
  // Graph and kernel are fixed for the whole run: bind each worker's
  // fused extender once instead of per root/task, all of them to the one
  // two-hop index of this graph (enabled only for k >= 4).
  const TwoHopIndex two_hop = TwoHopIndex::Build(graph, k, options.kernel);
  for (EvalContext& ctx : contexts) {
    ctx.fused.Bind(graph, options.kernel, &two_hop);
  }
  auto parallel_for = [&](size_t n, const ThreadPool::Task& task) {
    if (pool != nullptr) {
      pool->ParallelFor(n, task);
    } else {
      for (size_t i = 0; i < n; ++i) task(i, 0);
    }
  };

  // Fires the per-root callbacks; callback_mu must be held.
  auto fire_root_done = [&](size_t root) {
    if (options.label_time) {
      options.label_time(static_cast<LabelId>(root), root_ms[root]);
    }
    if (options.progress) options.progress(static_cast<LabelId>(root));
  };

  // ---- Phase A: per-root pre-pass. Writes the length-1 and length-2
  // entries and materializes the root's level-2 block (the tasks'
  // starting sets and their exact weights). Then selects the root's
  // tasks — every cell when no filter is given or level 1 is empty — and
  // zeroes each selected cell's deeper slices for its task to rewrite (or,
  // for an empty cell, to leave at zero).
  auto run_root = [&](size_t root, EvalContext& ctx) {
    Timer timer;
    PairSet* cells = num_cells != 0 ? &level2[root * num_labels] : nullptr;
    root_status[root] = RootPrepass(
        graph, ctx, static_cast<LabelId>(root), k, options, map, cells,
        num_cells != 0 ? &cell_status[root * num_labels] : nullptr);
    if (root_status[root].ok() && num_cells != 0) {
      uint8_t* dirty = &selected[root * num_labels];
      if (filter && ctx.level1.size() > 0) {
        filter(static_cast<LabelId>(root), cells, dirty);
      } else {
        std::fill_n(dirty, num_labels, uint8_t{1});
      }
      for (LabelId l2 = 0; l2 < num_labels; ++l2) {
        if (dirty[l2]) {
          ZeroPrefixSubtree(static_cast<LabelId>(root), l2, map);
        } else {
          cells[l2] = PairSet();  // not re-run: release its set now
        }
      }
    }
    root_ms[root] += timer.ElapsedMillis();
  };

  // Roots are presented heaviest-first by label cardinality (the exact
  // level-1 pair-set size); presentation order never changes the result.
  std::vector<uint64_t> root_weights;
  root_weights.reserve(roots.size());
  for (LabelId root : roots) {
    root_weights.push_back(graph.LabelCardinality(root));
  }
  const std::vector<size_t> root_order = HeaviestFirstOrder(root_weights);
  parallel_for(roots.size(), [&](size_t slot, size_t worker) {
    run_root(roots[root_order[slot]], contexts[worker]);
  });

  // ---- Task construction: one (root, l2) prefix task per selected,
  // non-empty, non-violating level-2 cell of a healthy root,
  // heaviest-first by the cell's exact pair count.
  std::vector<size_t> tasks;
  std::vector<uint64_t> weights;
  for (size_t cell = 0; cell < num_cells; ++cell) {
    if (!selected[cell] || !cell_status[cell].ok() ||
        level2[cell].size() == 0) {
      continue;
    }
    tasks.push_back(cell);
    weights.push_back(level2[cell].size());
    ++root_pending[cell / num_labels];
  }
  if (tasks_run != nullptr) *tasks_run = tasks.size();
  const std::vector<size_t> order = HeaviestFirstOrder(weights);

  // Run roots whose subtree finished in the pre-pass (k <= 2, empty or
  // guard-failed roots, or no task selected) complete here.
  if (options.progress || options.label_time) {
    std::lock_guard<std::mutex> lock(callback_mu);
    for (LabelId root : roots) {
      if (root_pending[root] == 0) fire_root_done(root);
    }
  }

  // ---- Phase B: the selected prefix tasks.
  auto run_task = [&](size_t cell, EvalContext& ctx) {
    Timer timer;
    const size_t root = cell / num_labels;
    const LabelId l2 = static_cast<LabelId>(cell % num_labels);
    cell_status[cell] = PrefixTask(graph, ctx, static_cast<LabelId>(root),
                                   l2, level2[cell], k, options, map);
    level2[cell] = PairSet();  // release the consumed starting set
    const double ms = timer.ElapsedMillis();
    std::lock_guard<std::mutex> lock(callback_mu);
    root_ms[root] += ms;
    if (--root_pending[root] == 0 &&
        (options.progress || options.label_time)) {
      fire_root_done(root);
    }
  };
  parallel_for(tasks.size(), [&](size_t slot, size_t worker) {
    run_task(tasks[order[slot]], contexts[worker]);
  });

  // DFS-order-first failure: for each root in ascending order, a level-1
  // violation precedes its cells'; within a root, cell l2's level-2 check
  // precedes any failure deeper inside l2's subtree, which precedes cell
  // l2+1 — the pre-order of one serial label-order DFS. Roots and cells
  // that did not run hold OK.
  for (size_t root = 0; root < num_labels; ++root) {
    if (!root_status[root].ok()) return std::move(root_status[root]);
    for (size_t cell = root * num_labels;
         k >= 3 && cell < (root + 1) * num_labels; ++cell) {
      if (!cell_status[cell].ok()) return std::move(cell_status[cell]);
    }
  }
  return Status::OK();
}

Result<SelectivityMap> ComputeSelectivities(const Graph& graph, size_t k,
                                            const SelectivityOptions& options) {
  if (graph.num_labels() == 0) {
    return Status::InvalidArgument("graph has no labels");
  }
  if (k < 1 || k > kMaxPathLength) {
    return Status::InvalidArgument("k out of range [1, kMaxPathLength]");
  }
  SelectivityMap map(PathSpace(graph.num_labels(), k));
  std::vector<LabelId> roots(graph.num_labels());
  std::iota(roots.begin(), roots.end(), LabelId{0});
  PATHEST_RETURN_NOT_OK(
      RefreshSelectivities(graph, roots, options, nullptr, &map));
  return map;
}

}  // namespace pathest
