#include "maint/incremental.h"

#include <algorithm>
#include <array>
#include <map>
#include <unordered_map>
#include <utility>

#include "graph/graph_builder.h"
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

  std::vector<LabelId> touched;
  for (LabelId root = 0; root < num_labels; ++root) {
    bool is_touched = delta_label[root] != 0;
    if (!is_touched && k >= 2) {
      const Graph::CsrView view = patched.ForwardView(root);
      const uint64_t num_targets = view.offsets[num_vertices];
      for (uint64_t e = 0; e < num_targets && !is_touched; ++e) {
        is_touched = cone_root[view.targets[e]] != 0;
      }
    }
    if (is_touched) touched.push_back(root);
  }
  if (stats != nullptr) stats->touched_roots = touched.size();

  // The per-cell tests of a touched root r ∉ D (r ∈ D dirties every cell).
  auto dirty_cells = [&](LabelId root, const PairSet* level2,
                         uint8_t* dirty) {
    if (delta_label[root]) {
      std::fill_n(dirty, num_labels, uint8_t{1});
      return;
    }
    // (a) an l2-labeled delta departs a level-1 target: the cell's
    // level-2 SET may have changed.
    const Graph::CsrView view = patched.ForwardView(root);
    const uint64_t num_targets = view.offsets[num_vertices];
    for (uint64_t e = 0; e < num_targets; ++e) {
      const VertexId t = view.targets[e];
      if (!delta_source[t]) continue;
      // at(): the driver calls this concurrently; it reads, never inserts.
      for (LabelId lab : source_labels.at(t)) dirty[lab] = 1;
    }
    // (b) a level-2 target reaches a delta source within k-3 hops: the
    // cell's DEEPER slices may have changed.
    for (LabelId l2 = 0; l2 < num_labels; ++l2) {
      if (dirty[l2]) continue;
      for (VertexId t : level2[l2].targets) {
        if ((*cone_task)[t]) {
          dirty[l2] = 1;
          break;
        }
      }
    }
  };
  PATHEST_RETURN_NOT_OK(RefreshSelectivities(
      patched, touched, options, dirty_cells, &map,
      stats != nullptr ? &stats->dirty_tasks : nullptr));
  return map;
}

}  // namespace maint
}  // namespace pathest
