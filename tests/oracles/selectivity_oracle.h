// Serial reference for the exact selectivity build (path/selectivity.h).
//
// A label-order DFS over the prefix trie that joins each prefix's pair set
// with ONE label at a time through the per-label CSR (Graph::ForwardView),
// deduplicating each source group with a plain seen-array and emitting
// targets in discovery order. It shares no code with FusedExtender: no
// vertex-major view, no packed keys, no adjacency plane, no two-hop index,
// no kernel choice, no incremental canonical index and no tasks. Agreement
// with it pins down the engine's kernels, its index bookkeeping and its
// guard order. Test-sized inputs only.

#ifndef PATHEST_TESTS_ORACLES_SELECTIVITY_ORACLE_H_
#define PATHEST_TESTS_ORACLES_SELECTIVITY_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "path/label_path.h"
#include "path/pair_set.h"
#include "path/selectivity.h"
#include "util/status.h"

namespace pathest {
namespace oracles {

/// The pair set of the one-label path (l): every source with an l-edge,
/// its targets in CSR order.
inline PairSet OracleLabelPairs(const Graph& graph, LabelId l) {
  PairSet out;
  out.offsets.push_back(0);
  const Graph::CsrView adj = graph.ForwardView(l);
  for (VertexId s = 0; s < graph.num_vertices(); ++s) {
    if (adj.offsets[s] == adj.offsets[s + 1]) continue;
    out.srcs.push_back(s);
    out.targets.insert(out.targets.end(), adj.targets + adj.offsets[s],
                       adj.targets + adj.offsets[s + 1]);
    out.offsets.push_back(out.targets.size());
  }
  return out;
}

/// child = parent ⋈ l: for every group of `parent`, its members in order
/// and each member's l-targets in CSR order, the first sighting of each
/// target emitted. `seen` holds one all-zero byte per vertex and is
/// all-zero again on return.
inline void OracleJoin(const Graph& graph, const PairSet& parent, LabelId l,
                       std::vector<uint8_t>* seen, PairSet* child) {
  child->Clear();
  child->offsets.push_back(0);
  const Graph::CsrView adj = graph.ForwardView(l);
  for (size_t i = 0; i < parent.srcs.size(); ++i) {
    const size_t before = child->targets.size();
    for (uint64_t j = parent.offsets[i]; j < parent.offsets[i + 1]; ++j) {
      const VertexId t = parent.targets[j];
      for (uint64_t e = adj.offsets[t]; e < adj.offsets[t + 1]; ++e) {
        const VertexId u = adj.targets[e];
        if ((*seen)[u] == 0) {
          (*seen)[u] = 1;
          child->targets.push_back(u);
        }
      }
    }
    for (size_t j = before; j < child->targets.size(); ++j) {
      (*seen)[child->targets[j]] = 0;
    }
    if (child->targets.size() > before) {
      child->srcs.push_back(parent.srcs[i]);
      child->offsets.push_back(child->targets.size());
    }
  }
}

/// The distinct pair set of one path, packed (src << 32 | dst) and sorted
/// ascending. InvalidArgument on an empty path or an unknown label.
inline Result<std::vector<uint64_t>> EvaluatePathPairs(const Graph& graph,
                                                       const LabelPath& path) {
  if (path.empty()) return Status::InvalidArgument("empty path");
  for (size_t i = 0; i < path.length(); ++i) {
    if (path.label(i) >= graph.num_labels()) {
      return Status::InvalidArgument("path uses unknown label id");
    }
  }
  std::vector<uint8_t> seen(graph.num_vertices(), 0);
  PairSet current = OracleLabelPairs(graph, path.label(0));
  PairSet next;
  for (size_t i = 1; i < path.length(); ++i) {
    OracleJoin(graph, current, path.label(i), &seen, &next);
    std::swap(current, next);
  }
  std::vector<uint64_t> packed;
  packed.reserve(current.size());
  for (size_t i = 0; i < current.srcs.size(); ++i) {
    for (uint64_t j = current.offsets[i]; j < current.offsets[i + 1]; ++j) {
      packed.push_back((static_cast<uint64_t>(current.srcs[i]) << 32) |
                       current.targets[j]);
    }
  }
  std::sort(packed.begin(), packed.end());
  return packed;
}

/// f(path): the size of EvaluatePathPairs.
inline Result<uint64_t> EvaluatePathSelectivity(const Graph& graph,
                                                const LabelPath& path) {
  auto pairs = EvaluatePathPairs(graph, path);
  if (!pairs.ok()) return pairs.status();
  return static_cast<uint64_t>(pairs->size());
}

struct OracleDfs {
  const Graph& graph;
  size_t k;
  uint64_t max_pairs_per_prefix;
  SelectivityMap* map;
  std::vector<PairSet> levels;  // levels[d]: the pair set of the depth-d node
  std::vector<uint8_t> seen;
};

// Writes f of `path` (its pair set is levels[path.length()]), checks the
// guard, then visits its children in label order.
inline Status OracleVisit(OracleDfs* r, LabelPath* path) {
  const size_t depth = path->length();
  const uint64_t size = r->levels[depth].size();
  r->map->Set(*path, size);
  // Every length-1 prefix and every prefix shorter than k is guarded;
  // deeper leaves are only counted.
  if (r->max_pairs_per_prefix != 0 && size > r->max_pairs_per_prefix &&
      (depth == 1 || depth < r->k)) {
    return Status::ResourceExhausted(
        "pair set exceeds max_pairs_per_prefix at path " + path->ToIdString());
  }
  if (depth == r->k || size == 0) return Status::OK();
  for (LabelId l = 0; l < r->graph.num_labels(); ++l) {
    OracleJoin(r->graph, r->levels[depth], l, &r->seen, &r->levels[depth + 1]);
    path->PushBack(l);
    Status st = OracleVisit(r, path);
    if (!st.ok()) return st;
    path->PopBack();
  }
  return Status::OK();
}

/// f(ℓ) for every ℓ in L_k, serially; on a guard violation, the first one
/// in DFS pre-order, with the engine's message.
inline Result<SelectivityMap> ReferenceSelectivities(
    const Graph& graph, size_t k, uint64_t max_pairs_per_prefix = 0) {
  SelectivityMap map(PathSpace(graph.num_labels(), k));
  OracleDfs r{graph, k, max_pairs_per_prefix, &map,
              std::vector<PairSet>(k + 1),
              std::vector<uint8_t>(graph.num_vertices(), 0)};
  for (LabelId root = 0; root < graph.num_labels(); ++root) {
    r.levels[1] = OracleLabelPairs(graph, root);
    LabelPath path{root};
    Status st = OracleVisit(&r, &path);
    if (!st.ok()) return st;
  }
  return map;
}

}  // namespace oracles
}  // namespace pathest

#endif  // PATHEST_TESTS_ORACLES_SELECTIVITY_ORACLE_H_
