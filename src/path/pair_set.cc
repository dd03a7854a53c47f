#include "path/pair_set.h"

#include <algorithm>
#include <atomic>
#include <bit>

namespace pathest {

const char* PairKernelName(PairKernel kernel) {
  switch (kernel) {
    case PairKernel::kSparse:
      return "sparse";
    case PairKernel::kDense:
      return "dense";
    case PairKernel::kAuto:
    default:
      return "auto";
  }
}

namespace {

// Effective per-label group-size threshold for one evaluation: forced
// kernels degenerate to the all/none sentinels, kAuto to the graph-derived
// density bound. Every kernel decision is then one integer compare.
inline uint64_t EffectiveThreshold(PairKernel kernel, uint64_t label_cardinality,
                                   size_t num_vertices, size_t num_words) {
  switch (kernel) {
    case PairKernel::kSparse:
      return UINT64_MAX;
    case PairKernel::kDense:
      return 0;
    case PairKernel::kAuto:
    default:
      return DenseGroupThreshold(label_cardinality, num_vertices, num_words);
  }
}

// Restart value of the flat epoch counter at every Bind (test hook; 0 =
// off).
std::atomic<uint32_t> g_initial_flat_epoch{0};

// ⌈log₂(|V|·|L|²)⌉ and ⌈log₂|L|²⌉: the bits of a two-hop entry's key and
// of its label pair.
uint32_t TwoHopKeyBits(size_t num_vertices, size_t num_labels) {
  return static_cast<uint32_t>(std::bit_width(
      std::max<size_t>(num_vertices * num_labels * num_labels, 1) - 1));
}
uint32_t TwoHopPairBits(size_t num_labels) {
  return static_cast<uint32_t>(std::bit_width(num_labels * num_labels - 1));
}

// Σ_{t→x} outdeg(x): every two-hop walk once, duplicates included — an
// upper bound on the index size, in one O(|E|) pass. Stops counting once
// past kPackedKeyMaxEntries.
uint64_t CountTwoHopWalks(const Graph& graph) {
  const Graph::PackedEdgeView packed = graph.PackedEdges();
  const uint64_t num_edges = packed.edge_offsets[graph.num_vertices()];
  uint64_t walks = 0;
  for (uint64_t e = 0; e < num_edges && walks <= kPackedKeyMaxEntries; ++e) {
    const VertexId x = packed.keys[e] >> packed.label_shift;
    walks += packed.edge_offsets[x + 1] - packed.edge_offsets[x];
  }
  return walks;
}

}  // namespace

bool TwoHopIndex::Eligible(const Graph& graph, size_t k, PairKernel kernel) {
  if (k < 4 || kernel == PairKernel::kDense || !graph.has_packed_edges()) {
    return false;
  }
  const size_t num_vertices = graph.num_vertices();
  const size_t num_labels = graph.num_labels();
  return num_vertices <= kPackedKeyMaxEntries / (num_labels * num_labels) &&
         TwoHopKeyBits(num_vertices, num_labels) +
                 TwoHopPairBits(num_labels) <=
             32 &&
         CountTwoHopWalks(graph) <= kPackedKeyMaxEntries;
}

TwoHopIndex TwoHopIndex::Build(const Graph& graph, size_t k,
                               PairKernel kernel) {
  TwoHopIndex index;
  if (!Eligible(graph, k, kernel)) return index;
  const size_t num_vertices = graph.num_vertices();
  const uint32_t num_labels = static_cast<uint32_t>(graph.num_labels());
  const uint32_t num_pairs = num_labels * num_labels;
  index.num_labels_ = num_labels;
  index.key_bits_ = TwoHopKeyBits(num_vertices, num_labels);
  const uint32_t key_bits = index.key_bits_;

  const Graph::PackedEdgeView packed = graph.PackedEdges();
  const uint32_t shift = packed.label_shift;
  const uint32_t mask = (uint32_t{1} << shift) - 1;
  const uint64_t* edge_offsets = packed.edge_offsets;
  const uint32_t* keys = packed.keys;
  // One dedup scope per t over a bitmap of the key space, cleared again
  // through t's own entries: the build's scratch is |V|·|L|² bits. The
  // walk bound sizes the entries in one allocation (the walks of a sparse
  // graph are nearly all distinct).
  std::vector<uint64_t> seen((num_vertices * num_pairs + 63) / 64, 0);
  index.entries_.reserve(CountTwoHopWalks(graph));
  index.offsets_.reserve(num_vertices + 1);
  index.offsets_.push_back(0);
  for (VertexId t = 0; t < num_vertices; ++t) {
    for (uint64_t e = edge_offsets[t]; e < edge_offsets[t + 1]; ++e) {
      const VertexId x = keys[e] >> shift;
      const uint32_t a_base = (keys[e] & mask) * num_labels;
      for (uint64_t f = edge_offsets[x]; f < edge_offsets[x + 1]; ++f) {
        const uint32_t pair = a_base + (keys[f] & mask);
        const uint32_t key = (keys[f] >> shift) * num_pairs + pair;
        uint64_t& word = seen[key >> 6];
        const uint64_t bit = uint64_t{1} << (key & 63);
        if ((word & bit) == 0) {
          word |= bit;
          index.entries_.push_back((pair << key_bits) | key);
        }
      }
    }
    for (size_t i = index.offsets_.back(); i < index.entries_.size(); ++i) {
      seen[(index.entries_[i] & index.key_mask()) >> 6] = 0;
    }
    index.offsets_.push_back(static_cast<uint32_t>(index.entries_.size()));
  }
  return index;
}

void FusedExtender::SetInitialEpochForTesting(uint32_t epoch) {
  g_initial_flat_epoch.store(epoch, std::memory_order_relaxed);
}

FusedExtender::FusedExtender(size_t num_vertices, size_t num_labels)
    : cap_vertices_(num_vertices),
      cap_labels_(num_labels),
      emit_(num_labels),
      bits_(num_labels),
      dense_threshold_(num_labels, 0),
      group_before_(num_labels, 0) {
  for (DynamicBitset& b : bits_) b.Reset(num_vertices);
}

void FusedExtender::Bind(const Graph& graph, PairKernel kernel,
                         const TwoHopIndex* two_hop) {
  const size_t num_vertices = graph.num_vertices();
  const size_t num_labels = graph.num_labels();
  PATHEST_CHECK(num_labels <= cap_labels_ && num_vertices <= cap_vertices_,
                "graph exceeds FusedExtender capacity");
  vm_ = graph.VertexMajor();
  plane_ = graph.AdjacencyBitmaps();
  num_labels_ = num_labels;
  row_edge_min_ = plane_.rows != nullptr
                      ? (plane_.stride_words + kPlaneRowWinFactor - 1) /
                            kPlaneRowWinFactor
                      : UINT64_MAX;

  // Flat sparse path: borrow the graph's packed edge keys; this context
  // owns only the epoch array they index.
  flat_ = graph.has_packed_edges();
  if (flat_) {
    const Graph::PackedEdgeView packed = graph.PackedEdges();
    keys_ = packed.keys;
    edge_offsets_ = packed.edge_offsets;
    label_shift_ = packed.label_shift;
    label_mask_ = (uint32_t{1} << label_shift_) - 1;
    size_t entries = num_vertices << label_shift_;
    two_hop_ = two_hop != nullptr && two_hop->enabled() ? two_hop : nullptr;
    if (two_hop_ != nullptr) {
      PATHEST_CHECK(two_hop_->num_vertices() == num_vertices &&
                        two_hop_->num_labels() == num_labels,
                    "two-hop index built for another graph");
      entries = std::max(entries, two_hop_->key_space());
      two_hop_counts_.Assign(num_labels * num_labels);
    }
    // Test hook: a nonzero start restarts the counter on every Bind.
    if (const uint32_t initial =
            g_initial_flat_epoch.load(std::memory_order_relaxed);
        initial != 0) {
      epoch_ = initial;
    }
    // Grown entries are zero, below every epoch still to be handed out.
    if (epoch_of_.size() < entries) epoch_of_.resize(entries, 0);
    flat_counts_.Assign(size_t{1} << label_shift_);
  } else {
    keys_ = nullptr;
    edge_offsets_ = nullptr;
    two_hop_ = nullptr;
    if (marker_.capacity() == 0) marker_ = Marker(cap_vertices_);
  }

  // all_dense: the smallest group size dense for EVERY label with edges.
  uint64_t all_dense = 0;
  for (LabelId l = 0; l < num_labels; ++l) {
    // Scan cost is what each per-label bitset actually walks — its full
    // capacity, which may exceed this graph's vertex count under reuse.
    const uint64_t cardinality = graph.LabelCardinality(l);
    dense_threshold_[l] = EffectiveThreshold(kernel, cardinality,
                                             num_vertices, bits_[l].num_words());
    if (cardinality > 0) all_dense = std::max(all_dense, dense_threshold_[l]);
  }
  // A group leaves the flat loop only once every label is dense for it: a
  // group with one sparse cell would give up the flat loop for ALL its
  // labels to win on a few (measured on a 4-core Xeon host, such mixed
  // groups made auto up to 38% slower than the sparse kernel on the
  // 1/20-scale moreno-like graph of bench_micro_selectivity at k = 6).
  flat_bound_ = flat_ ? all_dense : 0;
  // Slab fast path: such a group can union each member's whole plane slab
  // in CountAll (zero rows of edgeless labels are no-ops) and skip the
  // segment directory entirely. It ORs all |L| rows of every member, so it
  // beats the segment walk only when a member's rows carry, on average,
  // enough edges for row ORs to win — the graph layer's plane rule
  // (DensePlanePays), so a bound dense plane is the whole gate.
  slab_threshold_ = UINT64_MAX;
  if (plane_.kind == PlaneKind::kDense && all_dense != UINT64_MAX) {
    slab_threshold_ = all_dense;
    slab_.assign(plane_.stride_words * num_labels, 0);
  } else {
    slab_.clear();
  }
}

void FusedExtender::AccumulateDense(VertexId t, LabelId l, uint64_t s) {
  const uint64_t tgt_begin = vm_.tgt_offsets[s];
  const uint64_t tgt_end = vm_.tgt_offsets[s + 1];
  if (tgt_end - tgt_begin >= row_edge_min_) {
    bits_[l].OrWords(plane_.rows + (static_cast<size_t>(t) * num_labels_ + l) *
                                       plane_.stride_words,
                     plane_.stride_words);
  } else {
    DynamicBitset& bits = bits_[l];
    for (uint64_t e = tgt_begin; e < tgt_end; ++e) {
      bits.SetBitBlind(vm_.targets[e]);
    }
  }
}

void FusedExtender::CountAll(const PairSet& parent, uint64_t* counts) {
  const VertexId* targets = parent.targets.data();
  const uint32_t* keys = keys_;
  const uint64_t* edge_offsets = edge_offsets_;
  uint32_t* epoch_of = epoch_of_.data();
  uint64_t* flat_counts = flat_counts_.data();
  const uint32_t mask = label_mask_;
  const size_t slab_words = plane_.stride_words * num_labels_;
  for (size_t i = 0; i < parent.srcs.size(); ++i) {
    const uint64_t begin = parent.offsets[i];
    const uint64_t end = parent.offsets[i + 1];
    const uint64_t group_size = end - begin;
    if (group_size < flat_bound_) {
      // Flat sparse path: one loop over each member's whole out-edge range,
      // every label at once; counts accumulate across groups and are
      // flushed once per call.
      const uint32_t cur = NextFlatEpoch();
      for (uint64_t j = begin; j < end; ++j) {
        const VertexId t = targets[j];
        const uint64_t e_end = edge_offsets[t + 1];
        for (uint64_t e = edge_offsets[t]; e < e_end; ++e) {
          const uint32_t key = keys[e];
          flat_counts[key & mask] += epoch_of[key] != cur;
          epoch_of[key] = cur;
        }
      }
      continue;
    }
    if (group_size >= slab_threshold_) {
      // Slab fast path: every label is dense for this group, so each
      // member contributes its whole contiguous |L|·stride plane slab in
      // one vectorized union — no segment directory, no per-label branch.
      uint64_t* slab = slab_.data();
      for (uint64_t j = begin; j < end; ++j) {
        const uint64_t* row =
            plane_.rows +
            static_cast<size_t>(targets[j]) * num_labels_ *
                plane_.stride_words;
        for (size_t w = 0; w < slab_words; ++w) slab[w] |= row[w];
      }
      for (LabelId l = 0; l < num_labels_; ++l) {
        uint64_t distinct = 0;
        uint64_t* section = slab + l * plane_.stride_words;
        for (size_t w = 0; w < plane_.stride_words; ++w) {
          distinct += static_cast<uint64_t>(std::popcount(section[w]));
          section[w] = 0;
        }
        counts[l] += distinct;
      }
      continue;
    }
    // Segment walk: dense cells into the bitsets; sparse cells (arena
    // fallback only — with the flat epoch array every cell here is dense)
    // into the emission arenas.
    for (uint64_t j = begin; j < end; ++j) {
      const VertexId t = targets[j];
      const uint64_t seg_end = vm_.seg_offsets[t + 1];
      for (uint64_t s = vm_.seg_offsets[t]; s < seg_end; ++s) {
        const LabelId l = vm_.seg_labels[s];
        if (group_size >= dense_threshold_[l]) {
          AccumulateDense(t, l, s);
        } else {
          emit_[l].insert(emit_[l].end(), vm_.targets + vm_.tgt_offsets[s],
                          vm_.targets + vm_.tgt_offsets[s + 1]);
        }
      }
    }
    for (LabelId l = 0; l < num_labels_; ++l) {
      if (group_size >= dense_threshold_[l]) {
        counts[l] += bits_[l].CountAndClear();
      } else if (!emit_[l].empty()) {
        marker_.NextEpoch();
        uint64_t distinct = 0;
        for (VertexId u : emit_[l]) distinct += marker_.Mark(u);
        counts[l] += distinct;
        emit_[l].clear();
      }
    }
  }
  if (flat_) {
    for (LabelId l = 0; l < num_labels_; ++l) {
      counts[l] += flat_counts[l];
      flat_counts[l] = 0;
    }
  }
}

bool FusedExtender::TwoHopCovers(const PairSet& parent) const {
  if (two_hop_ == nullptr) return false;
  for (size_t i = 0; i < parent.srcs.size(); ++i) {
    if (parent.offsets[i + 1] - parent.offsets[i] >= flat_bound_) return false;
  }
  return true;
}

const uint64_t* FusedExtender::CountAll2(const PairSet& parent) {
  PATHEST_CHECK(two_hop_ != nullptr, "no two-hop index bound");
  const VertexId* targets = parent.targets.data();
  const uint32_t* offsets = two_hop_->offsets();
  const uint32_t* entries = two_hop_->entries();
  uint32_t* epoch_of = epoch_of_.data();
  uint64_t* counts = two_hop_counts_.data();
  const uint32_t key_bits = two_hop_->key_bits();
  const uint32_t key_mask = two_hop_->key_mask();
  std::fill_n(counts, two_hop_counts_.size(), uint64_t{0});
  for (size_t i = 0; i < parent.srcs.size(); ++i) {
    // CountAll's flat loop, over each member's two-hop entries.
    const uint32_t cur = NextFlatEpoch();
    for (uint64_t j = parent.offsets[i]; j < parent.offsets[i + 1]; ++j) {
      const VertexId t = targets[j];
      const uint32_t e_end = offsets[t + 1];
      for (uint32_t e = offsets[t]; e < e_end; ++e) {
        const uint32_t entry = entries[e];
        const uint32_t key = entry & key_mask;
        counts[entry >> key_bits] += epoch_of[key] != cur;
        epoch_of[key] = cur;
      }
    }
  }
  return counts;
}

void FusedExtender::ExtendAll(const PairSet& parent, PairSet* children) {
  for (LabelId l = 0; l < num_labels_; ++l) {
    children[l].Clear();
    children[l].offsets.push_back(0);
  }
  const VertexId* targets = parent.targets.data();
  const uint32_t* keys = keys_;
  const uint64_t* edge_offsets = edge_offsets_;
  uint32_t* epoch_of = epoch_of_.data();
  const uint32_t shift = label_shift_;
  const uint32_t mask = label_mask_;
  for (size_t i = 0; i < parent.srcs.size(); ++i) {
    const uint64_t begin = parent.offsets[i];
    const uint64_t end = parent.offsets[i + 1];
    const uint64_t group_size = end - begin;
    for (LabelId l = 0; l < num_labels_; ++l) {
      group_before_[l] = children[l].targets.size();
    }
    if (group_size < flat_bound_) {
      // Flat sparse path: first-seen keys go straight into their label's
      // child builder, in each label's discovery order.
      const uint32_t cur = NextFlatEpoch();
      for (uint64_t j = begin; j < end; ++j) {
        const VertexId t = targets[j];
        const uint64_t e_end = edge_offsets[t + 1];
        for (uint64_t e = edge_offsets[t]; e < e_end; ++e) {
          const uint32_t key = keys[e];
          if (epoch_of[key] != cur) {
            epoch_of[key] = cur;
            children[key & mask].targets.push_back(key >> shift);
          }
        }
      }
    } else {
      // Segment walk, as in CountAll.
      for (uint64_t j = begin; j < end; ++j) {
        const VertexId t = targets[j];
        const uint64_t seg_end = vm_.seg_offsets[t + 1];
        for (uint64_t s = vm_.seg_offsets[t]; s < seg_end; ++s) {
          const LabelId l = vm_.seg_labels[s];
          if (group_size >= dense_threshold_[l]) {
            AccumulateDense(t, l, s);
          } else {
            emit_[l].insert(emit_[l].end(),
                            vm_.targets + vm_.tgt_offsets[s],
                            vm_.targets + vm_.tgt_offsets[s + 1]);
          }
        }
      }
      for (LabelId l = 0; l < num_labels_; ++l) {
        std::vector<VertexId>& out = children[l].targets;
        if (group_size >= dense_threshold_[l]) {
          bits_[l].ExtractAndClear([&out](size_t u) {
            out.push_back(static_cast<VertexId>(u));
          });
        } else if (!emit_[l].empty()) {
          marker_.NextEpoch();
          for (VertexId u : emit_[l]) {
            if (marker_.Mark(u)) out.push_back(u);
          }
          emit_[l].clear();
        }
      }
    }
    for (LabelId l = 0; l < num_labels_; ++l) {
      PairSet& child = children[l];
      if (child.targets.size() > group_before_[l]) {
        child.srcs.push_back(parent.srcs[i]);
        child.offsets.push_back(child.targets.size());
      }
    }
  }
}

void InitialPairSet(const Graph& graph, LabelId l, PairSet* out) {
  out->Clear();
  out->offsets.push_back(0);
  const Graph::CsrView adj = graph.ForwardView(l);
  const size_t num_vertices = graph.num_vertices();
  for (VertexId v = 0; v < num_vertices; ++v) {
    const uint64_t begin = adj.offsets[v];
    const uint64_t end = adj.offsets[v + 1];
    if (begin == end) continue;
    out->srcs.push_back(v);
    // CSR targets can contain no duplicates (edge set semantics), so the
    // row is already a distinct target list.
    out->targets.insert(out->targets.end(), adj.targets + begin,
                        adj.targets + end);
    out->offsets.push_back(out->targets.size());
  }
}

}  // namespace pathest
