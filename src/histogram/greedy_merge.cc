#include <algorithm>
#include <functional>
#include <limits>
#include <utility>

#include "histogram/builders.h"

namespace pathest {

namespace {

constexpr uint32_t kNoNode = std::numeric_limits<uint32_t>::max();

// Live bucket during greedy merging. A node's index is its begin position
// (a merge keeps the left bucket's node), so the bucket spans
// [index, next): `next` is both the right neighbour's index and this
// bucket's end, and equals n for the last bucket.
struct Node {
  double sum;
  double sumsq;
  uint32_t prev;  // kNoNode for the first bucket
  uint32_t next;
};

double Sse(const Node& node, uint32_t begin) {
  double w = static_cast<double>(node.next - begin);
  return node.sumsq - (node.sum * node.sum) / w;
}

// SSE increase of merging bucket `left` with its right neighbour.
double MergeDelta(const std::vector<Node>& nodes, uint32_t left) {
  const Node& a = nodes[left];
  const Node& b = nodes[a.next];
  double sum = a.sum + b.sum;
  double sumsq = a.sumsq + b.sumsq;
  double w = static_cast<double>(b.next - left);
  double merged_sse = sumsq - (sum * sum) / w;
  return merged_sse - Sse(a, left) - Sse(b, a.next);
}

// One entry per live adjacent pair (left, nodes[left].next), its merge cost
// inline. Entries are ordered by (delta, left): a total order, since the
// left position identifies the pair.
struct PairEntry {
  double delta;
  uint32_t left;
};

bool Before(const PairEntry& x, const PairEntry& y) {
  return x.delta < y.delta || (x.delta == y.delta && x.left < y.left);
}

// Indexed binary min-heap of the live pairs. pos_[left] is the heap slot
// of pair `left`, so a merge can erase or re-key any pair in place and the
// heap never holds a stale entry.
class PairHeap {
 public:
  // O(n) bottom-up heapify of `entries`; every `left` must be < num_nodes.
  PairHeap(std::vector<PairEntry> entries, size_t num_nodes)
      : heap_(std::move(entries)), pos_(num_nodes, kNoNode) {
    for (size_t i = 0; i < heap_.size(); ++i) {
      pos_[heap_[i].left] = static_cast<uint32_t>(i);
    }
    for (size_t i = heap_.size() / 2; i-- > 0;) SiftDown(i, heap_[i]);
  }

  bool empty() const { return heap_.empty(); }
  const PairEntry& top() const { return heap_[0]; }

  // Sets the merge cost of the queued pair `left`.
  void Update(uint32_t left, double delta) {
    Reseat(pos_[left], PairEntry{delta, left});
  }

  // Drops the queued pair `left`.
  void Erase(uint32_t left) {
    const size_t slot = pos_[left];
    pos_[left] = kNoNode;
    const PairEntry last = heap_.back();
    heap_.pop_back();
    if (slot < heap_.size()) Reseat(slot, last);
  }

 private:
  // Moves `e` into the hole at `slot` and restores the heap order.
  void Reseat(size_t slot, PairEntry e) {
    if (slot > 0 && Before(e, heap_[(slot - 1) / 2])) {
      SiftUp(slot, e);
    } else {
      SiftDown(slot, e);
    }
  }

  void SiftUp(size_t hole, PairEntry e) {
    while (hole > 0) {
      const size_t parent = (hole - 1) / 2;
      if (!Before(e, heap_[parent])) break;
      Place(hole, heap_[parent]);
      hole = parent;
    }
    Place(hole, e);
  }

  void SiftDown(size_t hole, PairEntry e) {
    const size_t size = heap_.size();
    for (;;) {
      size_t child = 2 * hole + 1;
      if (child >= size) break;
      if (child + 1 < size && Before(heap_[child + 1], heap_[child])) ++child;
      if (!Before(heap_[child], e)) break;
      Place(hole, heap_[child]);
      hole = child;
    }
    Place(hole, e);
  }

  void Place(size_t slot, const PairEntry& e) {
    heap_[slot] = e;
    pos_[e.left] = static_cast<uint32_t>(slot);
  }

  std::vector<PairEntry> heap_;
  std::vector<uint32_t> pos_;
};

// The shared merge engine: ONE merge pass from n singleton buckets down to
// the smallest requested level, snapshotting boundaries each time the
// live-bucket count reaches a requested level. Both the per-β builder and
// the sweep run through here, which is what makes their outputs
// bit-identical: the merge trajectory never depends on the target β — the
// target only decides where along the trajectory to stop (or, for the
// sweep, where to snapshot and keep going).
//
// Each step merges the live pair with the smallest (ΔSSE, left position),
// taken from an indexed heap holding exactly one entry per live pair. A
// merge re-keys the merged bucket's pairs with both neighbours and erases
// the absorbed bucket's pair in place, so no stale entry is ever queued or
// popped. Pinning ties to the left position makes the trajectory a function
// of the data alone, independent of the heap's internal layout.
Result<std::vector<Histogram>> RunGreedyMerge(const std::vector<uint64_t>& data,
                                              const std::vector<size_t>& betas,
                                              GreedyMergeMetrics* metrics) {
  if (data.empty()) return Status::InvalidArgument("empty histogram domain");
  for (size_t b : betas) {
    if (b == 0) return Status::InvalidArgument("need >= 1 bucket");
  }
  if (betas.empty()) return std::vector<Histogram>{};
  const size_t n = data.size();
  if (n >= kNoNode) {
    return Status::InvalidArgument("greedy merge domain exceeds 2^32 - 2");
  }
  if (metrics != nullptr) ++metrics->merge_runs;

  // Requested live-bucket levels, clamped like the per-β builder, visited
  // in descending order as merging shrinks the live count.
  std::vector<size_t> targets;
  targets.reserve(betas.size());
  for (size_t b : betas) targets.push_back(std::min(b, n));
  std::sort(targets.begin(), targets.end(), std::greater<size_t>());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());

  std::vector<Node> nodes(n);
  for (size_t i = 0; i < n; ++i) {
    double v = static_cast<double>(data[i]);
    nodes[i] = Node{v, v * v, i == 0 ? kNoNode : static_cast<uint32_t>(i - 1),
                    static_cast<uint32_t>(i + 1)};
  }

  // Boundary snapshots per target level, in descending-level order. Node 0
  // is never absorbed, so the live buckets are the list from node 0.
  std::vector<std::pair<size_t, std::vector<uint64_t>>> snapshots;
  snapshots.reserve(targets.size());
  size_t live = n;
  size_t next_target = 0;
  auto snapshot_if_requested = [&]() {
    if (next_target >= targets.size() || live != targets[next_target]) return;
    std::vector<uint64_t> boundaries;
    boundaries.reserve(live - 1);
    for (uint32_t i = nodes[0].next; i < n; i = nodes[i].next) {
      boundaries.push_back(i);
    }
    snapshots.emplace_back(live, std::move(boundaries));
    ++next_target;
  };
  snapshot_if_requested();  // covers targets equal to n

  if (live > targets.back()) {
    std::vector<PairEntry> pairs(n - 1);
    for (uint32_t i = 0; i + 1 < n; ++i) {
      pairs[i] = PairEntry{MergeDelta(nodes, i), i};
    }
    PairHeap heap(std::move(pairs), n);

    while (live > targets.back()) {
      PATHEST_CHECK(!heap.empty(), "greedy merge heap exhausted early");
      const uint32_t left = heap.top().left;
      Node& a = nodes[left];
      const uint32_t right = a.next;
      const Node& b = nodes[right];
      // Merge b into a.
      a.sum += b.sum;
      a.sumsq += b.sumsq;
      a.next = b.next;
      if (a.next < n) {
        nodes[a.next].prev = left;
        heap.Update(left, MergeDelta(nodes, left));
        heap.Erase(right);
      } else {
        heap.Erase(left);
      }
      if (a.prev != kNoNode) heap.Update(a.prev, MergeDelta(nodes, a.prev));
      --live;
      if (metrics != nullptr) ++metrics->merges;
      snapshot_if_requested();
    }
  }

  // Materialize one histogram per INPUT beta (duplicates share a snapshot).
  std::vector<Histogram> out;
  out.reserve(betas.size());
  for (size_t b : betas) {
    const size_t level = std::min(b, n);
    const std::vector<uint64_t>* boundaries = nullptr;
    for (const auto& [snap_level, snap] : snapshots) {
      if (snap_level == level) {
        boundaries = &snap;
        break;
      }
    }
    PATHEST_CHECK(boundaries != nullptr, "greedy sweep missed a target level");
    auto h = Histogram::FromBoundaries(data, *boundaries);
    if (!h.ok()) return h.status();
    out.push_back(std::move(*h));
  }
  return out;
}

}  // namespace

Result<Histogram> BuildVOptimalGreedy(const std::vector<uint64_t>& data,
                                      size_t num_buckets) {
  auto sweep = RunGreedyMerge(data, {num_buckets}, nullptr);
  if (!sweep.ok()) return sweep.status();
  return std::move((*sweep)[0]);
}

Result<Histogram> BuildVOptimalGreedy(const DistributionStats& stats,
                                      size_t num_buckets) {
  return BuildVOptimalGreedy(stats.data(), num_buckets);
}

Result<std::vector<Histogram>> BuildVOptimalGreedySweep(
    const DistributionStats& stats, const std::vector<size_t>& betas,
    GreedyMergeMetrics* metrics) {
  return RunGreedyMerge(stats.data(), betas, metrics);
}

}  // namespace pathest
