#include "maint/incremental.h"

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>

#include "engine/eval_context.h"
#include "engine/schedule.h"
#include "graph/graph_builder.h"
#include "engine/thread_pool.h"
#include "path/pair_set.h"

namespace pathest {
namespace maint {

std::vector<EdgeDelta> EdgeDeltasFromRecords(
    const std::vector<DeltaRecord>& records) {
  std::vector<EdgeDelta> deltas;
  deltas.reserve(records.size());
  for (const DeltaRecord& rec : records) {
    if (!rec.is_edge()) continue;
    deltas.push_back(EdgeDelta{rec.kind == DeltaRecord::Kind::kAddEdge,
                               rec.src, rec.dst, rec.label});
  }
  return deltas;
}

Result<Graph> PatchGraph(const Graph& graph,
                         const std::vector<EdgeDelta>& deltas,
                         size_t num_threads) {
  const size_t num_labels = graph.num_labels();
  // Last-op-wins per triple: replaying the same delta sequence over a
  // graph that already folded a prefix of it converges (idempotence).
  std::map<std::array<uint32_t, 3>, bool> final_op;
  size_t num_vertices = graph.num_vertices();
  for (const EdgeDelta& d : deltas) {
    if (d.label >= num_labels) {
      return Status::InvalidArgument(
          "delta label id " + std::to_string(d.label) +
          " outside the graph dictionary (" + std::to_string(num_labels) +
          " labels)");
    }
    final_op[{d.src, d.dst, d.label}] = d.add;
    const size_t needed = static_cast<size_t>(std::max(d.src, d.dst)) + 1;
    if (d.add && needed > num_vertices) num_vertices = needed;
  }

  std::vector<Edge> edges = graph.CollectEdges();
  std::vector<Edge> patched;
  patched.reserve(edges.size() + final_op.size());
  for (const Edge& e : edges) {
    // Triples with a pending op are dropped here and re-added below when
    // the final op is an add — one code path for add/remove/no-op.
    if (final_op.count({e.src, e.dst, e.label}) != 0) continue;
    patched.push_back(e);
  }
  for (const auto& [triple, add] : final_op) {
    if (add) patched.push_back(Edge{triple[0], triple[2], triple[1]});
  }

  GraphBuilder builder;
  builder.Adopt(graph.labels(), std::move(patched), num_vertices);
  GraphBuildOptions build_options;
  build_options.with_reverse = graph.has_reverse();
  build_options.num_threads = num_threads;
  return builder.Build(build_options);
}

namespace {

// Backward reachability cones over the union graph (patched ∪ removed
// delta edges): out[j] holds C_j for j = 0..max_hops, where C_j is the set
// of vertices from which some delta source is reachable within <= j hops
// over any label. Level-synchronous, so each C_j is exact (the dirtiness
// tests want specific hop budgets, and under-approximating would be a
// correctness bug; over-approximating only wastes recomputation).
std::vector<std::vector<uint8_t>> ComputeCones(
    const Graph& patched, const std::vector<EdgeDelta>& deltas,
    const std::vector<uint8_t>& sources, size_t max_hops) {
  const size_t num_vertices = patched.num_vertices();
  const size_t num_labels = patched.num_labels();
  std::vector<std::vector<uint8_t>> cones;
  cones.push_back(sources);  // C_0 = U
  for (size_t hop = 1; hop <= max_hops; ++hop) {
    const std::vector<uint8_t>& prev = cones.back();
    std::vector<uint8_t> next = prev;
    for (LabelId l = 0; l < num_labels; ++l) {
      const Graph::CsrView view = patched.ForwardView(l);
      for (size_t v = 0; v < num_vertices; ++v) {
        if (next[v]) continue;
        for (uint64_t e = view.offsets[v]; e < view.offsets[v + 1]; ++e) {
          if (prev[view.targets[e]]) {
            next[v] = 1;
            break;
          }
        }
      }
    }
    for (const EdgeDelta& d : deltas) {
      if (!d.add && d.src < num_vertices && d.dst < num_vertices &&
          prev[d.dst]) {
        next[d.src] = 1;
      }
    }
    cones.push_back(std::move(next));
  }
  return cones;
}

}  // namespace

Result<SelectivityMap> IncrementalSelectivities(
    const Graph& patched, const SelectivityMap& old_map,
    const std::vector<EdgeDelta>& deltas, const SelectivityOptions& options,
    IncrementalStats* stats) {
  const PathSpace& space = old_map.space();
  const size_t k = space.k();
  const size_t num_labels = space.num_labels();
  const size_t num_vertices = patched.num_vertices();
  if (num_labels != patched.num_labels()) {
    return Status::InvalidArgument(
        "selectivity map covers " + std::to_string(num_labels) +
        " labels but the patched graph has " +
        std::to_string(patched.num_labels()));
  }
  if (stats != nullptr) {
    *stats = IncrementalStats{};
    stats->num_deltas = deltas.size();
    stats->total_roots = num_labels;
    stats->total_tasks = k >= 3 ? num_labels * num_labels : 0;
  }
  SelectivityMap map = old_map;  // clean slices survive verbatim
  if (deltas.empty()) return map;

  // D, U, and the per-source delta-label lists for the level-2 test.
  std::vector<uint8_t> delta_label(num_labels, 0);
  std::vector<uint8_t> delta_source(num_vertices, 0);
  std::unordered_map<VertexId, std::vector<LabelId>> source_labels;
  for (const EdgeDelta& d : deltas) {
    if (d.label >= num_labels) {
      return Status::InvalidArgument("delta label id " +
                                     std::to_string(d.label) +
                                     " outside the graph dictionary");
    }
    if (d.src >= num_vertices || d.dst >= num_vertices) {
      return Status::InvalidArgument(
          "delta endpoint outside the patched graph's vertex range — was "
          "the graph patched with these deltas?");
    }
    delta_label[d.label] = 1;
    delta_source[d.src] = 1;
    std::vector<LabelId>& labels = source_labels[d.src];
    if (std::find(labels.begin(), labels.end(), d.label) == labels.end()) {
      labels.push_back(d.label);
    }
  }

  // C_0..C_{k-2}; the root test reads C_{k-2}, the task test C_{k-3}.
  const size_t max_hops = k >= 2 ? k - 2 : 0;
  const std::vector<std::vector<uint8_t>> cones =
      ComputeCones(patched, deltas, delta_source, max_hops);
  const std::vector<uint8_t>& cone_root = cones[max_hops];
  const std::vector<uint8_t>* cone_task =
      k >= 3 ? &cones[k - 3] : nullptr;
  if (stats != nullptr) {
    for (uint8_t bit : cone_root) stats->cone_vertices += bit;
  }

  std::vector<size_t> touched;
  for (size_t root = 0; root < num_labels; ++root) {
    bool is_touched = delta_label[root] != 0;
    if (!is_touched && k >= 2) {
      const Graph::CsrView view =
          patched.ForwardView(static_cast<LabelId>(root));
      const uint64_t num_targets = view.offsets[num_vertices];
      for (uint64_t e = 0; e < num_targets && !is_touched; ++e) {
        is_touched = cone_root[view.targets[e]] != 0;
      }
    }
    if (is_touched) touched.push_back(root);
  }
  if (stats != nullptr) stats->touched_roots = touched.size();
  if (touched.empty()) return map;

  const size_t num_cells = k >= 3 ? num_labels * num_labels : 0;
  std::vector<Status> root_status(num_labels);
  std::vector<Status> cell_status(num_cells);
  std::vector<PairSet> level2(num_cells);
  // Per-root task lists: written only by the root's own Phase A worker.
  std::vector<std::vector<size_t>> root_tasks(num_labels);

  const size_t num_threads = ResolvedNumThreads(options, num_labels, k);

  std::unique_ptr<ThreadPool> pool;
  std::vector<EvalContext> contexts;
  if (num_threads > 1) {
    pool = std::make_unique<ThreadPool>(num_threads);
    contexts.reserve(pool->num_threads());
    for (size_t w = 0; w < pool->num_threads(); ++w) {
      contexts.emplace_back(num_vertices, num_labels, k);
    }
  } else {
    contexts.emplace_back(num_vertices, num_labels, k);
  }
  // The two-hop index of the PATCHED graph: the prefix tasks re-run
  // below must see the deltas in their last two levels too.
  const TwoHopIndex two_hop = TwoHopIndex::Build(patched, k, options.kernel);
  for (EvalContext& ctx : contexts) {
    ctx.fused.Bind(patched, options.kernel, &two_hop);
  }
  auto parallel_for = [&](size_t n, const ThreadPool::Task& task) {
    if (pool != nullptr) {
      pool->ParallelFor(n, task);
    } else {
      for (size_t i = 0; i < n; ++i) task(i, 0);
    }
  };

  // ---- Phase A: re-run the pre-pass of every touched root through the
  // full build's own primitive, then decide which of its cells are dirty.
  auto run_root = [&](size_t root, EvalContext& ctx) {
    root_status[root] = EvaluateFusedRootPrepass(
        patched, ctx, static_cast<LabelId>(root), k, options, &map,
        num_cells != 0 ? &level2[root * num_labels] : nullptr,
        num_cells != 0 ? &cell_status[root * num_labels] : nullptr);
    if (!root_status[root].ok()) return;
    const uint64_t level1_size =
        map.GetByCanonicalIndex(space.LengthOffset(1) + root);
    if (k >= 2 && level1_size == 0) {
      // The pre-pass skips level 2 for an empty root; when a removal just
      // EMPTIED the root, the stale entries must be zeroed by hand.
      map.ZeroRange(space.LengthOffset(2) + root * num_labels, num_labels);
      for (LabelId l2 = 0; l2 < num_labels; ++l2) {
        ZeroPrefixSubtree(static_cast<LabelId>(root), l2, &map);
      }
      return;
    }
    if (k < 3) return;
    std::vector<uint8_t> dirty(num_labels, delta_label[root]);
    if (!delta_label[root]) {
      // (a) an l2-labeled delta departs a level-1 target: the cell's
      // level-2 SET may have changed.
      const Graph::CsrView view =
          patched.ForwardView(static_cast<LabelId>(root));
      const uint64_t num_targets = view.offsets[num_vertices];
      for (uint64_t e = 0; e < num_targets; ++e) {
        const VertexId t = view.targets[e];
        if (!delta_source[t]) continue;
        // at(): concurrent Phase A workers read this map, never insert.
        for (LabelId lab : source_labels.at(t)) dirty[lab] = 1;
      }
      // (b) a level-2 target reaches a delta source within k-3 hops: the
      // cell's DEEPER slices may have changed.
      for (size_t l2 = 0; l2 < num_labels; ++l2) {
        if (dirty[l2]) continue;
        for (VertexId t : level2[root * num_labels + l2].targets) {
          if ((*cone_task)[t]) {
            dirty[l2] = 1;
            break;
          }
        }
      }
    }
    for (size_t l2 = 0; l2 < num_labels; ++l2) {
      if (!dirty[l2]) continue;
      const size_t cell = root * num_labels + l2;
      ZeroPrefixSubtree(static_cast<LabelId>(root),
                        static_cast<LabelId>(l2), &map);
      if (cell_status[cell].ok() && level2[cell].size() > 0) {
        root_tasks[root].push_back(cell);
      }
    }
  };
  parallel_for(touched.size(), [&](size_t slot, size_t worker) {
    run_root(touched[slot], contexts[worker]);
  });

  // ---- Phase B: the dirty prefix tasks, heaviest-first like the full
  // build (presentation order never changes the result).
  std::vector<size_t> tasks;
  std::vector<uint64_t> weights;
  for (size_t root = 0; root < num_labels; ++root) {
    for (size_t cell : root_tasks[root]) {
      tasks.push_back(cell);
      weights.push_back(level2[cell].size());
    }
  }
  if (stats != nullptr) stats->dirty_tasks = tasks.size();
  const std::vector<size_t> order = HeaviestFirstOrder(weights);
  auto run_task = [&](size_t cell, EvalContext& ctx) {
    const size_t root = cell / num_labels;
    const LabelId l2 = static_cast<LabelId>(cell % num_labels);
    cell_status[cell] =
        EvaluateFusedPrefixTask(patched, ctx, static_cast<LabelId>(root), l2,
                                level2[cell], k, options, &map);
    level2[cell] = PairSet();
  };
  parallel_for(tasks.size(), [&](size_t slot, size_t worker) {
    run_task(tasks[order[slot]], contexts[worker]);
  });

  // DFS-order-first failure, exactly like the full build (clean slots
  // default to OK, so only re-evaluated work can report).
  for (size_t root = 0; root < num_labels; ++root) {
    if (!root_status[root].ok()) return std::move(root_status[root]);
    for (size_t cell = root * num_labels;
         k >= 3 && cell < (root + 1) * num_labels; ++cell) {
      if (!cell_status[cell].ok()) return std::move(cell_status[cell]);
    }
  }
  return map;
}

}  // namespace maint
}  // namespace pathest
