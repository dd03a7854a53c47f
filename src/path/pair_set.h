// pathest: the evaluator's scratch data structures — distinct pair sets,
// the two-hop index, and the fused kernel that extends a pair set into all
// |L| children at once.
//
// They are exposed here so the engine layer (engine/eval_context.h) can
// own one FusedExtender per worker thread. They are scratch, not values:
// every structure is reusable across evaluations and none is thread-safe
// on its own — parallel callers get isolation by owning disjoint
// instances, one per worker (the TwoHopIndex is built once and only read).
//
// Kernels. Every extension pass deduplicates the successors of one source
// group, and does so with one of two kernels chosen per (group, label)
// cell:
//   * sparse — epoch marking: each candidate successor probes an epoch
//     word; first-seen vertices are emitted in discovery order. Cost ~
//     O(emissions) with one random access each. FusedExtender runs it
//     label-fused: one u32 epoch array indexed by the packed key
//     (vertex << ⌈log₂|L|⌉) | label serves every label of a group at once,
//     so a group is one flat loop over each member's whole out-edge range
//     until it is dense for every label.
//   * dense  — the bitmap loop: candidates are blindly OR-ed into a
//     DynamicBitset (1 bit/vertex, branch-free), then drained by an
//     ascending word scan (ExtractAndClear / CountAndClear). Cost ~
//     O(emissions + |V|/64), with far better cache behavior per emission.
// kAuto picks dense exactly when the cell's expected emission count covers
// the word-scan term (see DenseGroupThreshold below). The choice depends
// only on the graph and the prefix's pair set — never on threads or prior
// scratch state — and both kernels produce the same distinct sets, so the
// computed SelectivityMap is bit-identical across kernels (test-enforced by
// tests/selectivity_differential_test.cc). Forcing one kernel everywhere
// (PairKernel::kSparse / kDense) is a test hook, not a tuning knob.

#ifndef PATHEST_PATH_PAIR_SET_H_
#define PATHEST_PATH_PAIR_SET_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "util/bitset.h"
#include "util/line_counts.h"

namespace pathest {

/// \brief Extension-kernel selection for the pair-set joins.
///
/// Only kAuto serves. The forced modes exist so the kernel-identity tests
/// and bench_micro_selectivity --json can run each kernel in isolation.
enum class PairKernel : uint8_t {
  kAuto = 0,    ///< per-(group, label) cost-based choice (the default)
  kSparse = 1,  ///< force the epoch-marker kernel everywhere
  kDense = 2,   ///< force the bitmap kernel everywhere
};

/// \brief Stable lowercase name ("auto" / "sparse" / "dense").
const char* PairKernelName(PairKernel kernel);

/// \brief Margin of the adaptive density test: the dense kernel must expect
/// this many candidate emissions per bitmap word before it is chosen. At 1
/// the word scan merely breaks even against the emission loop; requiring a
/// multiple keeps borderline cells — where the bitmap's per-emission edge
/// is smallest — on the sparse kernel. FusedExtender's flat sparse loop is
/// cheap per edge, so a bitmap must amortize a lot before it pays.
/// Measured on a 4-core Xeon host with the bench_micro_selectivity --json
/// graphs, kernels interleaved: at margin 4 auto lagged the sparse kernel
/// by up to 6% on the moreno-like graphs at k = 6; at 32 it lagged the
/// dense kernel by ~12% on er-dense k = 3; 16 keeps auto within 5% of the
/// better kernel on every config, in the median of five full-scale sweeps.
inline constexpr uint64_t kDenseEmissionsPerWord = 16;

/// \brief The adaptive density test, precomputed per label: the smallest
/// source-group size for which the dense kernel is expected to win.
///
/// A cell's candidate emission count is estimated in O(1) as
///   group_size × mean out-degree of the label (cardinality / |V|),
/// i.e. the exact sum of candidate emissions is replaced by its
/// expectation — walking the group to add up true degrees costs about as
/// much as the sparse kernel itself on low-degree graphs, which is
/// exactly where the estimate must be cheap. The dense kernel is chosen
/// when that expectation covers scanning the whole bitmap (one word per
/// 64 vertices) `margin` times over:
///   group_size × card / |V| >= margin × num_words
/// Returns the group-size threshold (never 0; ~0 cardinality labels never
/// go dense — they have next to no emissions to amortize a scan with).
/// Deterministic in the graph alone, so kernel choice can never depend on
/// scheduling.
inline uint64_t DenseGroupThreshold(
    uint64_t label_cardinality, size_t num_vertices, size_t num_words,
    uint64_t margin = kDenseEmissionsPerWord) {
  if (label_cardinality == 0) return UINT64_MAX;
  const uint64_t cost = margin *
                        static_cast<uint64_t>(num_words) *
                        static_cast<uint64_t>(num_vertices);
  const uint64_t threshold =
      (cost + label_cardinality - 1) / label_cardinality;
  return threshold == 0 ? 1 : threshold;
}

/// \brief Distinct pair set of one path prefix, grouped by source vertex.
///
/// targets[offsets[i] .. offsets[i+1]) are the distinct endpoints reachable
/// from srcs[i]; their order is NOT specified (the dense kernel emits
/// ascending, the sparse kernel in discovery order — the evaluator only
/// needs counts and further extension, both order-independent).
struct PairSet {
  std::vector<VertexId> srcs;
  std::vector<uint64_t> offsets;  // size srcs.size() + 1
  std::vector<VertexId> targets;

  uint64_t size() const { return targets.size(); }
  void Clear() {
    srcs.clear();
    offsets.clear();
    targets.clear();
  }
};

/// \brief Per-graph two-hop key index: for every vertex t, one entry per
/// distinct two-hop walk target and label pair (u, a, b) of
/// t −a→ x −b→ u, holding
///   key  = u·|L|² + p,   p = a·|L| + b   (the epoch index), and
///   entry = (p << key_bits) | key,       key_bits = ⌈log₂(|V|·|L|²)⌉,
/// so the pass reads the epoch index with a mask and the label pair with
/// a shift.
///
/// It serves the fused engine's two-hop leaf pass (FusedExtender::CountAll2),
/// which counts the last TWO levels of a prefix in one walk: for a pair
/// set R_ℓ, R_ℓab(s) = ∪_{t ∈ R_ℓ(s)} N_ab(t), so deduplicating each
/// group's two-hop keys against one epoch array yields all |L|² grandchild
/// counts without materializing the |L| children. This is the Markov-table
/// idea (precomputed length-2 path statistics, reused for every longer
/// path) applied inside the exact evaluator.
///
/// The key space is the exact |V|·|L|², so the epoch array a bound
/// extender needs is no larger than the pass requires. The label pair
/// rides in the spare high bits of each entry because recovering it from
/// the key (key mod |L|², a multiply by a reciprocal) made the pass ~10%
/// slower on a 4-core Xeon host (k = 6 builds of the full-size
/// moreno-like graph, CPU time, slower in 9 of 10 interleaved runs).
/// Padding the pair to a power-of-two field, read with a mask, ran a
/// median 3% faster than the tag, but costs up to 2× the epoch memory
/// (|L| = 6: 64 slots per vertex instead of 36): on that graph a k = 4
/// build then peaked ~190 KiB above the engine without the pass, where
/// with the tag it peaks ~130 KiB below it.
///
/// Its size is Σ_{a,b} f(ab) entries — the level-2 selectivity mass —
/// plus 4 bytes per vertex. It is built once per fused build (full or
/// incremental), shared read-only by every worker through
/// FusedExtender::Bind, and freed with the build; it is deliberately not
/// part of Graph, whose lifetime in the daemon is much longer.
class TwoHopIndex {
 public:
  /// \brief True when a depth-k fused build of `graph` under `kernel` runs
  /// the two-hop leaf pass: k >= 4 (the pass starts at depth k − 2, which
  /// must be a prefix task), the graph has packed edge keys, the kernel is
  /// not forced dense (that kernel never takes the flat path the pass
  /// extends), the key space |V|·|L|² and the build's upper bound
  /// Σ_{t→x} outdeg(x) on the index size both fit kPackedKeyMaxEntries,
  /// and a key and its label pair fit one 32-bit entry together.
  static bool Eligible(const Graph& graph, size_t k, PairKernel kernel);

  /// \brief Builds the index of `graph`, or an empty one (enabled() ==
  /// false) when the build is not Eligible.
  static TwoHopIndex Build(const Graph& graph, size_t k, PairKernel kernel);

  /// An empty index: the leaf pass is off.
  TwoHopIndex() = default;

  bool enabled() const { return !offsets_.empty(); }

  /// Number of vertices / labels of the indexed graph.
  size_t num_vertices() const { return enabled() ? offsets_.size() - 1 : 0; }
  size_t num_labels() const { return num_labels_; }

  /// Number of distinct keys, |V|·|L|²: the epoch entries the pass needs.
  size_t key_space() const {
    return num_vertices() * num_labels_ * num_labels_;
  }

  /// entry & key_mask() is the key, entry >> key_bits() its label pair.
  uint32_t key_bits() const { return key_bits_; }
  uint32_t key_mask() const { return (uint32_t{1} << key_bits_) - 1; }

  /// The entries of t are entries()[offsets()[t] .. offsets()[t + 1]).
  const uint32_t* offsets() const { return offsets_.data(); }
  const uint32_t* entries() const { return entries_.data(); }
  size_t size() const { return entries_.size(); }

 private:
  size_t num_labels_ = 0;
  uint32_t key_bits_ = 0;
  std::vector<uint32_t> offsets_;  // |V| + 1 when enabled
  std::vector<uint32_t> entries_;
};

/// \brief Fused all-labels extension kernel: joins a parent pair set with
/// EVERY label in a single pass over its target lists.
///
/// A per-label join would re-walk the parent's target lists once per
/// label, paying |L| random CSR row accesses per target. This kernel walks
/// each target exactly once and reads its FULL out-adjacency sequentially
/// from the graph's vertex-major view (Graph::VertexMajor). Each source
/// group takes one of three paths, all chosen from the group's size alone:
///   * flat sparse — groups below the size at which EVERY label turns
///     dense (the common case: most groups hold a handful of members).
///     The graph packs every vertex-major edge into a u32 key
///     (target << ⌈log₂|L|⌉) | label once (Graph::PackedEdges), and the
///     group runs ONE branch-light loop over each member's whole out-edge
///     range of keys against this context's u32 epoch array of
///     |V|·2^⌈log₂|L|⌉ entries:
///       new = epoch[key] != cur; epoch[key] = cur; count[key & mask] += new
///     (ExtendAll pushes key >> shift into children[key & mask] instead).
///     Within each label this is discovery order — members in order, each
///     member's targets in CSR order — so child sets match a plain
///     per-label join element for element. A group with only some labels
///     dense stays here too: leaving the flat loop would cost all its
///     labels to win on a few.
///   * slab (CountAll, dense plane) — groups dense for every label OR
///     each member's whole contiguous |L|·stride plane slab into one
///     scratch slab and popcount it per label, whenever the graph has a
///     dense plane (built only where the slab pays: DensePlanePays).
///   * segment walk — the other groups dense for every label, walked
///     segment by segment into per-label DynamicBitsets (segments with
///     enough edges union their precomputed adjacency bitmap row,
///     Graph::AdjacencyBitmaps, in vectorized word-ORs) drained by
///     CountAndClear / ExtractAndClear.
/// The per-label thresholds are DenseGroupThreshold at margin
/// kDenseEmissionsPerWord, shared by CountAll and ExtendAll.
///
/// Two-hop leaf pass. Bound with a TwoHopIndex, the extender can count
/// the last two levels of a prefix at once: CountAll2 runs the flat loop
/// over each member's two-hop keys instead of its out-edge keys, giving
/// the |L|² grandchild counts of a depth k − 2 node without building its
/// |L| children. The DFS takes it only where CountAll would keep every
/// group on the flat path anyway (TwoHopCovers: every group below the flat
/// bound), and runs CountAll on the same node for the |L| child counts;
/// nodes with a larger group keep ExtendAll + CountAll. The epoch array
/// then spans the larger two-hop key space, and both passes draw their
/// scopes from its one counter.
///
/// When |V|·2^⌈log₂|L|⌉ exceeds kMaxMarkerEntries the graph has no packed
/// keys and there is no epoch array: every group takes the segment walk,
/// whose sparse cells append to per-label emission arenas, deduplicated by
/// one shared 64-bit Marker after the group (allocated only then). With
/// the epoch array, a group on the segment walk is dense for every label
/// with edges, so its arenas stay empty — labels without edges are the
/// only sparse cells left there. All scratch is owned by this object and
/// allocated by the constructor or Bind, so steady-state extension of |L|
/// children allocates nothing (arenas and children keep their high-water
/// capacity).
///
/// Determinism: the per-cell kernel choice depends only on the graph and
/// the parent's group sizes (never on threads or prior scratch), and every
/// accumulator produces the same distinct sets, so maps computed through
/// this kernel are bit-identical across kernels and thread counts and
/// equal to the independent serial oracle's
/// (tests/oracles/selectivity_oracle.h) — test-enforced by
/// tests/selectivity_differential_test.cc.
class FusedExtender {
 public:
  /// Flat-epoch budget: the label-fused sparse path needs |V|·2^⌈log₂|L|⌉
  /// u32 epochs per context; above this many entries (16 MB) the graph
  /// carries no packed keys and the emission-arena fallback is used
  /// instead (graph.h kPackedKeyMaxEntries, the same bound). A bound
  /// TwoHopIndex widens the array to its key space, which the same bound
  /// caps (TwoHopIndex::Eligible).
  static constexpr size_t kMaxMarkerEntries = kPackedKeyMaxEntries;

  /// Capacities: reusable for any graph with at most `num_vertices`
  /// vertices and `num_labels` labels (the EvalContext reuse contract).
  /// Construction allocates the per-label scratch (bitsets, thresholds,
  /// watermarks, emission arenas); Bind allocates what depends on the
  /// bound graph.
  FusedExtender(size_t num_vertices, size_t num_labels);

  /// \brief Binds the graph (and kernel policy) this extender reads:
  /// caches the vertex-major view, packed edge keys and adjacency plane,
  /// and refreshes the per-label density thresholds. Must be called before
  /// CountAll / ExtendAll whenever the graph or kernel changes; O(|L|)
  /// once the graph-dependent scratch exists (the first Bind grows the
  /// epoch array, or allocates the Marker on a graph without packed
  /// keys).
  ///
  /// `two_hop`, when non-null and enabled, must be the index of `graph`
  /// and outlive the binding; it enables TwoHopCovers / CountAll2 and
  /// grows the epoch array to its key space.
  void Bind(const Graph& graph, PairKernel kernel,
            const TwoHopIndex* two_hop = nullptr);

  /// \brief Fused leaf pass: adds, for each label l, the number of
  /// distinct (s, u) pairs of parent ⋈ l into counts[l].
  void CountAll(const PairSet& parent, uint64_t* counts);

  /// \brief True when CountAll2 may run on `parent`: a two-hop index is
  /// bound and every group of `parent` is below the flat bound, so
  /// CountAll on it is wholly on the flat sparse path too.
  bool TwoHopCovers(const PairSet& parent) const;

  /// \brief The counter arrays CountAll's flat loop and CountAll2 bump
  /// once per edge, each on cache lines of its own (util/line_counts.h).
  const LineCounts& flat_counts() const { return flat_counts_; }
  const LineCounts& two_hop_counts() const { return two_hop_counts_; }

  /// \brief Two-hop leaf pass: the number of distinct (s, u) pairs of
  /// parent ⋈ a ⋈ b for every label pair, at index a·|L| + b of the
  /// returned |L|² counts (this extender's buffer, valid until the next
  /// CountAll2 or Bind). Requires TwoHopCovers(parent).
  const uint64_t* CountAll2(const PairSet& parent);

  /// \brief Fused interior pass: children[l] = distinct pair set of
  /// parent ⋈ l, for every label l in one pass. `children` must point to
  /// at least the bound graph's label count of PairSets; prior contents
  /// are discarded.
  void ExtendAll(const PairSet& parent, PairSet* children);

  /// \brief True when the bound graph runs the flat epoch array, false
  /// when it takes the emission-arena fallback.
  bool flat_sparse() const { return flat_; }

  /// \brief Test hook: while `epoch` is nonzero, every Bind restarts the
  /// extender's u32 epoch counter at `epoch`, so tests can drive the
  /// wraparound (which clears the array) within a small build. Marks an
  /// extender wrote before are kept, so `epoch` must exceed every epoch it
  /// has handed out; marks from low epochs then collide with the scopes
  /// after the wrap unless the clear reaches them. Process-wide; restore 0
  /// when done.
  static void SetInitialEpochForTesting(uint32_t epoch);

 private:
  /// Opens a new distinct-set scope of the flat epoch array; on u32
  /// wraparound the array is cleared so no stale epoch can match.
  uint32_t NextFlatEpoch() {
    if (++epoch_ == 0) {
      std::fill(epoch_of_.begin(), epoch_of_.end(), 0u);
      epoch_ = 1;
    }
    return epoch_;
  }

  /// Accumulates the dense cell (t, l) = vertex-major segment `s` into
  /// bits_[l]: one row union when the graph has a plane and the segment
  /// carries enough edges, one blind bit-set per edge otherwise.
  void AccumulateDense(VertexId t, LabelId l, uint64_t s);

  /// 64-bit epoch marker of the emission-arena fallback: deduplicates a
  /// group's arena per label. O(1) reset between scopes: bumping the epoch
  /// invalidates every previous mark without touching memory. The flat
  /// epoch array replaces it on every graph with packed keys; it stays for
  /// graphs whose |V|·2^⌈log₂|L|⌉ exceeds kMaxMarkerEntries, where a u32
  /// key array cannot exist.
  class Marker {
   public:
    explicit Marker(size_t num_vertices) : epoch_of_(num_vertices, 0) {}

    /// \brief Starts a new distinct-set scope.
    void NextEpoch() { ++epoch_; }

    /// \brief Number of vertices this marker can mark.
    size_t capacity() const { return epoch_of_.size(); }

    /// \brief Returns true the first time `v` is seen in the current scope.
    bool Mark(VertexId v) {
      if (epoch_of_[v] == epoch_) return false;
      epoch_of_[v] = epoch_;
      return true;
    }

   private:
    uint64_t epoch_ = 0;
    std::vector<uint64_t> epoch_of_;
  };

  size_t cap_vertices_;
  size_t cap_labels_;
  size_t num_labels_ = 0;        // bound graph's label count
  Graph::VertexMajorView vm_{};  // bound graph's vertex-major adjacency
  Graph::AdjacencyPlane plane_{};  // bitmap rows (rows == nullptr if absent)
  // Min segment length for a row OR (kPlaneRowWinFactor crossover);
  // UINT64_MAX without a plane.
  uint64_t row_edge_min_ = UINT64_MAX;
  // Flat sparse path (flat_ == true).
  bool flat_ = false;
  uint32_t label_shift_ = 0;       // ⌈log₂|L|⌉
  uint32_t label_mask_ = 0;        // 2^label_shift_ - 1
  const uint32_t* keys_ = nullptr;          // bound graph's packed keys
  const uint64_t* edge_offsets_ = nullptr;  // and their per-vertex offsets
  // |V| << shift epochs, or the two-hop key space when that is larger.
  std::vector<uint32_t> epoch_of_;
  uint32_t epoch_ = 0;
  LineCounts flat_counts_;  // CountAll sparse counts, 2^shift
  // Two-hop leaf pass (two_hop_ != nullptr).
  const TwoHopIndex* two_hop_ = nullptr;
  LineCounts two_hop_counts_;  // CountAll2 counts, |L|²
  // Emission-arena fallback (flat_ == false). The arenas exist, empty, on
  // every graph: a segment-walk drain reads the arena of every label. The
  // Marker is allocated by the first Bind to a graph without packed keys.
  Marker marker_{0};
  std::vector<std::vector<VertexId>> emit_;
  // Dense path.
  std::vector<DynamicBitset> bits_;  // per label; all-zero between groups
  /// Per-label group-size thresholds (DenseGroupThreshold, or the forced
  /// kernel's all/none sentinel), shared by CountAll and ExtendAll.
  std::vector<uint64_t> dense_threshold_;
  /// Groups smaller than this take the flat loop: the largest
  /// dense_threshold_ over labels with edges, or 0 without the flat epoch
  /// array.
  uint64_t flat_bound_ = 0;
  /// Slab fast-path bound: groups at least this large have EVERY
  /// (nonzero-cardinality) label dense, so CountAll ORs each member's
  /// whole contiguous plane slab — all |L| rows, no segment directory —
  /// into slab_ and popcounts per label section. Dense planes only.
  uint64_t slab_threshold_ = UINT64_MAX;
  std::vector<uint64_t> slab_;           // |L| · stride words, all-zero
  std::vector<size_t> group_before_;     // ExtendAll per-label watermark
};

/// \brief Builds the level-1 pair set for label `l` directly from the CSR,
/// in one unchecked ForwardView sweep.
void InitialPairSet(const Graph& graph, LabelId l, PairSet* out);

}  // namespace pathest

#endif  // PATHEST_PATH_PAIR_SET_H_
