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

/// Byte budget for the per-(vertex, label) adjacency bitmap plane.
///
/// Plane-kind decision rule (GraphBuilder::Build, PlanePolicy::kAuto):
///   1. DENSE — when the full |V|² · |L| / 8-byte plane fits the budget,
///      every (vertex, label) cell gets a |V|-bit row at the fixed address
///      rows + (v · |L| + l) · stride_words. Small/medium graphs.
///   2. HUB — otherwise, rows are materialized only for cells whose
///      out-degree reaches a graph-deterministic threshold: the smallest
///      degree T >= ceil(stride_words / kPlaneRowWinFactor) such that all
///      cells with degree >= T still fit the budget (cells below the floor
///      never win against their edge-list scan, so they are never
///      materialized). Rows are addressed through a per-vertex-major-
///      segment directory (AdjacencyPlane::seg_rows). Million-vertex
///      graphs keep the fused kernel's word-OR fast path on exactly the
///      hub cells that dominate its work instead of losing the plane
///      entirely at the dense cliff.
///   3. NONE — when not even one hub row fits (or the graph is empty).
/// The rule depends only on the graph and the budget — never on thread
/// count — so built planes are bit-identical across ingest parallelism.
inline constexpr size_t kAdjacencyPlaneMaxBytes = 32 * 1024 * 1024;

/// A plane row beats the per-edge bit-RMW loop when the cell carries at
/// least stride_words / kPlaneRowWinFactor edges — word-ORs vectorize to
/// roughly this many per bit-RMW (FusedExtender's row crossover, and the
/// hub plane's materialization floor).
inline constexpr uint64_t kPlaneRowWinFactor = 4;

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
  kNone = 0,   ///< no rows materialized (over budget even for hubs)
  kDense = 1,  ///< every (vertex, label) cell has a row, direct addressing
  kHub = 2,    ///< degree-thresholded rows behind a segment directory
};

/// \brief Stable lowercase name ("none" / "dense" / "hub").
const char* PlaneKindName(PlaneKind kind);

/// \brief Sentinel in AdjacencyPlane::seg_rows: segment has no bitmap row.
inline constexpr uint32_t kNoPlaneRow = UINT32_MAX;

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
  /// cell's l-successors.
  ///
  /// The plane lets the fused kernel's dense cells union a whole adjacency
  /// row with stride_words word-ORs (vectorizable) instead of one
  /// bit-RMW per edge — a win whenever a segment carries at least
  /// ~stride_words / kPlaneRowWinFactor edges. Addressing depends on kind
  /// (see the decision rule at kAdjacencyPlaneMaxBytes):
  ///   * kDense — cell (v, l) is at rows + (v · |L| + l) · stride_words;
  ///     seg_rows is nullptr.
  ///   * kHub  — only cells with out-degree >= hub_degree_threshold have
  ///     rows; vertex-major segment s maps to row seg_rows[s] (kNoPlaneRow
  ///     when absent), i.e. rows + seg_rows[s] · stride_words. Consumers
  ///     walking VertexMajorView get the lookup for free; everyone else
  ///     uses Graph::PlaneRow.
  ///   * kNone — rows is nullptr, nothing is materialized.
  /// Derived data, built once per graph; valid while the Graph is alive.
  struct AdjacencyPlane {
    const uint64_t* rows;      // nullptr when kind == kNone
    size_t stride_words;       // ceil(num_vertices / 64)
    PlaneKind kind;
    const uint32_t* seg_rows;  // hub only: one entry per vm segment
    size_t num_rows;           // materialized row count
    uint64_t hub_degree_threshold;  // hub only: min cell out-degree
  };

  /// \brief Accessor for the adjacency bitmap plane (kind == kNone and
  /// rows == nullptr when nothing was materialized).
  AdjacencyPlane AdjacencyBitmaps() const;

  /// \brief The bitmap row of cell (v, l), or nullptr when that cell has
  /// none (kNone plane, or a below-threshold cell of a hub plane). O(1)
  /// for dense planes, O(log segments(v)) for hub planes — convenience
  /// for tests and cold paths; hot loops use AdjacencyPlane directly.
  const uint64_t* PlaneRow(VertexId v, LabelId l) const;

  /// \brief Deep structural equality: vertex/edge/label counts, label
  /// names, forward and reverse CSRs, vertex-major arrays, packed edge
  /// keys, and the plane
  /// (kind, threshold, directory, and row words). This is the ingest
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

  // Adjacency bitmap plane (AdjacencyBitmaps); empty when not even hub
  // rows fit the byte budget.
  PlaneKind plane_kind_ = PlaneKind::kNone;
  std::vector<uint64_t> plane_;
  size_t plane_stride_words_ = 0;
  std::vector<uint32_t> plane_seg_rows_;  // hub only: row per vm segment
  uint64_t hub_degree_threshold_ = 0;     // hub only
};

}  // namespace pathest

#endif  // PATHEST_GRAPH_GRAPH_H_
