// pathest: directed edge-labeled graph, the data model of the paper
// (Section 2): G = (V, L, E) with E a set of labeled directed edges
// E ⊆ V × L × V.
//
// The graph is immutable once built (see GraphBuilder) and stores one CSR
// adjacency structure per edge label, which is exactly the access pattern of
// the path-selectivity evaluator: "all l-successors of vertex v".

#ifndef PATHEST_GRAPH_GRAPH_H_
#define PATHEST_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace pathest {

/// Vertex identifier; dense in [0, num_vertices).
using VertexId = uint32_t;

/// Edge-label identifier; dense in [0, num_labels).
using LabelId = uint32_t;

/// Byte cap of the per-(vertex, label) adjacency bitmap plane.
///
/// Plane decision rule (DensePlanePays — GraphBuilder::Build under
/// PlanePolicy::kAuto, and BuildReference): a graph carries a dense plane,
/// one |V|-bit row per (vertex, label) cell at the fixed address
/// rows + (v · |L| + l) · stride_words, iff the plane fits this cap AND the
/// fused kernel's slab pays for it:
///   |E| · kPlaneRowWinFactor >= |V| · |L| · ⌈|V|/64⌉.
/// Otherwise it carries none. The plane's one reader is FusedExtender,
/// and it gains from it on groups dense for every label, whose slab union
/// ORs all |L| rows of each member: that beats walking the member's edges
/// only when its rows carry, on average, a row-OR's worth of edges each —
/// the per-row crossover summed over the slab. Below that line the plane
/// costs build time and memory (4.87 MB on the full-size moreno-like
/// graph) and the selectivity build is no faster with it; in an ER sweep
/// every graph where it won 1.2× or more at both 1 and 4 workers passed
/// the test (README). The rule depends only on the graph, never on thread
/// count, so built planes are bit-identical across ingest parallelism.
inline constexpr size_t kAdjacencyPlaneMaxBytes = 32 * 1024 * 1024;

/// A plane row beats the per-edge bit-RMW loop when the cell carries at
/// least stride_words / kPlaneRowWinFactor edges — word-ORs vectorize to
/// roughly this many per bit-RMW (FusedExtender's row crossover, and the
/// slab test of DensePlanePays).
inline constexpr uint64_t kPlaneRowWinFactor = 4;

/// \brief 64-bit words in one plane row: ⌈|V|/64⌉ (without the
/// wraparound of (|V| + 63) / 64 near SIZE_MAX).
inline size_t PlaneStrideWords(size_t num_vertices) {
  return num_vertices / 64 + (num_vertices % 64 != 0);
}

/// \brief True when a dense plane of this shape fits
/// kAdjacencyPlaneMaxBytes. Overflow-proof: the guard exists for huge
/// graphs, where |V| · |L| · stride would wrap a size_t.
inline bool DensePlaneFits(size_t num_vertices, size_t num_labels) {
  return num_vertices > 0 && num_labels > 0 &&
         PlaneStrideWords(num_vertices) <= kAdjacencyPlaneMaxBytes /
                                               sizeof(uint64_t) /
                                               num_vertices / num_labels;
}

/// \brief The plane decision rule (see kAdjacencyPlaneMaxBytes): true when
/// a graph of this shape gets a dense plane — it fits the cap and
/// |E| · kPlaneRowWinFactor >= |V| · |L| · stride. Overflow-proof.
inline bool DensePlanePays(size_t num_vertices, size_t num_edges,
                           size_t num_labels) {
  if (!DensePlaneFits(num_vertices, num_labels)) return false;
  // The plane fits, so its word count is below the cap: no wraparound.
  const uint64_t plane_words = static_cast<uint64_t>(num_vertices) *
                               num_labels * PlaneStrideWords(num_vertices);
  return num_edges >=
         (plane_words + kPlaneRowWinFactor - 1) / kPlaneRowWinFactor;
}

/// Entry budget of the packed edge keys (Graph::PackedEdges): they are
/// built only while |V| · 2^⌈log₂|L|⌉ — the key space, and the size of the
/// u32 epoch array the fused kernel's flat sparse loop indexes with them
/// (FusedExtender::kMaxMarkerEntries) — stays at or below this many
/// entries. Also keeps every key below 2^32.
inline constexpr size_t kPackedKeyMaxEntries = 4u << 20;

/// \brief ⌈log₂|L|⌉: the low bits a packed edge key spends on its label
/// (0 for |L| <= 1).
inline uint32_t PackedLabelShift(size_t num_labels) {
  uint32_t shift = 0;
  while ((size_t{1} << shift) < num_labels) ++shift;
  return shift;
}

/// \brief True when a graph of this shape carries packed edge keys.
inline bool PackedKeysFit(size_t num_vertices, size_t num_labels) {
  return num_labels > 0 && num_vertices <= (kPackedKeyMaxEntries >>
                                            PackedLabelShift(num_labels));
}

/// \brief Which adjacency-plane representation a graph carries.
enum class PlaneKind : uint8_t {
  kNone = 0,   ///< no rows materialized
  kDense = 1,  ///< every (vertex, label) cell has a row, direct addressing
};

/// \brief Stable lowercase name ("none" / "dense").
const char* PlaneKindName(PlaneKind kind);

/// \brief One directed labeled edge.
struct Edge {
  VertexId src;
  LabelId label;
  VertexId dst;

  bool operator==(const Edge&) const = default;
};

/// \brief Dictionary mapping label names to dense LabelIds.
///
/// LabelIds are assigned in insertion order; the alphabetical ranking rule
/// (ordering/ranking.h) orders by *name*, not by id.
class LabelDictionary {
 public:
  /// \brief Returns the id for `name`, interning it if new.
  LabelId Intern(const std::string& name);

  /// \brief Id for an existing name, or NotFound.
  Result<LabelId> Find(const std::string& name) const;

  /// \brief Name of an id. Id must be valid.
  const std::string& Name(LabelId id) const;

  size_t size() const { return names_.size(); }
  const std::vector<std::string>& names() const { return names_; }

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, LabelId> index_;
};

/// \brief Immutable directed edge-labeled multigraph with per-label CSR.
///
/// Parallel (src, label, dst) duplicates are removed at build time, matching
/// the paper's set semantics for E.
class Graph {
 public:
  /// \brief Number of vertices |V|.
  size_t num_vertices() const { return num_vertices_; }

  /// \brief Number of distinct labels |L|.
  size_t num_labels() const { return labels_.size(); }

  /// \brief Number of distinct labeled edges |E|.
  size_t num_edges() const { return num_edges_; }

  /// \brief The label dictionary.
  const LabelDictionary& labels() const { return labels_; }

  /// \brief Out-neighbors of `v` via edges labeled `l`, sorted ascending.
  std::span<const VertexId> OutNeighbors(VertexId v, LabelId l) const;

  /// \brief In-neighbors of `v` via edges labeled `l`, sorted ascending.
  /// Only available when the graph was built with reverse adjacency.
  std::span<const VertexId> InNeighbors(VertexId v, LabelId l) const;

  /// \brief True when reverse adjacency was materialized.
  bool has_reverse() const { return !reverse_.empty(); }

  /// \brief Number of edges labeled `l` — the label cardinality f(l).
  uint64_t LabelCardinality(LabelId l) const;

  /// \brief Borrowed raw view of one label's forward CSR, for hot loops that
  /// cannot afford per-access bounds checks (the selectivity evaluator).
  /// Valid as long as the Graph is alive. `offsets` has num_vertices()+1
  /// entries; neighbors of v are targets[offsets[v] .. offsets[v+1]).
  struct CsrView {
    const uint64_t* offsets;
    const VertexId* targets;
  };

  /// \brief Checked-once accessor for CsrView.
  CsrView ForwardView(LabelId l) const;

  /// \brief Borrowed raw view of the vertex-major, label-segmented
  /// adjacency: all out-edges of one vertex stored contiguously, grouped
  /// into per-label segments with a per-vertex segment directory.
  ///
  /// This is the transpose of the per-label CSR family along the (vertex,
  /// label) axes, built once at graph construction. Where the per-label CSR
  /// answers "the l-successors of v" (one random row access per label), this
  /// view answers "ALL successors of v, split by label" in one sequential
  /// read — the access pattern of the fused all-labels extension kernel
  /// (path/pair_set.h FusedExtender), which visits each DFS pair exactly
  /// once instead of once per label.
  ///
  /// Layout: segments of vertex v are seg_offsets[v] .. seg_offsets[v+1]);
  /// segment s carries label seg_labels[s] and the distinct, ascending
  /// target run targets[tgt_offsets[s] .. tgt_offsets[s+1]). Only non-empty
  /// (vertex, label) cells get a segment. Valid while the Graph is alive.
  struct VertexMajorView {
    const uint64_t* seg_offsets;  // num_vertices() + 1 entries
    const LabelId* seg_labels;    // one per segment
    const uint64_t* tgt_offsets;  // num_segments + 1 entries
    const VertexId* targets;      // num_edges() entries
  };

  /// \brief Checked-once accessor for VertexMajorView.
  VertexMajorView VertexMajor() const;

  /// \brief Borrowed view of the packed edge keys: every vertex-major edge
  /// re-encoded as one u32, key = (target << label_shift) | label with
  /// label_shift = ⌈log₂|L|⌉, in VertexMajorView edge order. The out-edges
  /// of v are keys[edge_offsets[v] .. edge_offsets[v+1]), all labels
  /// together. This is the fused kernel's flat sparse loop input: one
  /// sequential read per member yields both the successor and the index of
  /// its (vertex, label) epoch. Built once per graph, only when
  /// PackedKeysFit (see has_packed_edges); costs 4 bytes per edge plus
  /// 8 bytes per vertex. Valid while the Graph is alive.
  struct PackedEdgeView {
    const uint64_t* edge_offsets;  // num_vertices() + 1 entries
    const uint32_t* keys;          // num_edges() entries
    uint32_t label_shift;
  };

  /// \brief True when the packed edge keys were built
  /// (PackedKeysFit(num_vertices(), num_labels())).
  bool has_packed_edges() const { return !pk_edge_offsets_.empty(); }

  /// \brief Checked accessor for PackedEdgeView; requires
  /// has_packed_edges().
  PackedEdgeView PackedEdges() const;

  /// \brief Borrowed view of the per-(vertex, label) adjacency bitmap
  /// plane: a row is a |V|-bit bitmap (stride_words 64-bit words) of one
  /// cell's l-successors, cell (v, l) at rows + (v · |L| + l) ·
  /// stride_words, so each vertex's |L| rows form one contiguous slab.
  ///
  /// The plane lets the fused kernel's dense cells union a whole adjacency
  /// row with stride_words word-ORs (vectorizable) instead of one
  /// bit-RMW per edge, and its all-labels-dense groups union whole slabs.
  /// Built only where that pays (DensePlanePays); kind == kNone and
  /// rows == nullptr otherwise. Derived data, built once per graph; valid
  /// while the Graph is alive.
  struct AdjacencyPlane {
    const uint64_t* rows;  // nullptr when kind == kNone
    size_t stride_words;   // ceil(num_vertices / 64); 0 without a plane
    PlaneKind kind;
  };

  /// \brief Accessor for the adjacency bitmap plane.
  AdjacencyPlane AdjacencyBitmaps() const;

  /// \brief Deep structural equality: vertex/edge/label counts, label
  /// names, forward and reverse CSRs, vertex-major arrays, packed edge
  /// keys, and the plane (kind and row words). This is the ingest
  /// determinism contract — builds of the same edge multiset must compare
  /// equal at every thread count — and is what the build tests assert.
  bool IdenticalTo(const Graph& other) const;

  /// \brief All edges, materialized in (label, src, dst) order.
  std::vector<Edge> CollectEdges() const;

 private:
  friend class GraphBuilder;

  struct Csr {
    std::vector<uint64_t> offsets;  // size num_vertices + 1
    std::vector<VertexId> targets;
  };

  size_t num_vertices_ = 0;
  size_t num_edges_ = 0;
  LabelDictionary labels_;
  std::vector<Csr> forward_;  // one per label
  std::vector<Csr> reverse_;  // empty unless requested

  // Vertex-major, label-segmented adjacency (VertexMajorView). One extra
  // copy of the edge targets plus O(segments) directory — the price of the
  // fused kernel's sequential access pattern, paid once per graph.
  std::vector<uint64_t> vm_seg_offsets_;  // num_vertices_ + 1
  std::vector<LabelId> vm_seg_labels_;    // one per non-empty (v, l) cell
  std::vector<uint64_t> vm_tgt_offsets_;  // segments + 1
  std::vector<VertexId> vm_targets_;      // num_edges_

  // Packed edge keys (PackedEdgeView); both empty unless PackedKeysFit.
  std::vector<uint64_t> pk_edge_offsets_;  // num_vertices_ + 1
  std::vector<uint32_t> pk_keys_;          // num_edges_
  uint32_t pk_label_shift_ = 0;

  // Adjacency bitmap plane (AdjacencyBitmaps); empty unless dense.
  PlaneKind plane_kind_ = PlaneKind::kNone;
  std::vector<uint64_t> plane_;
  size_t plane_stride_words_ = 0;
};

}  // namespace pathest

#endif  // PATHEST_GRAPH_GRAPH_H_
