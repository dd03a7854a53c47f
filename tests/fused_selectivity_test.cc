// Named boundary cases of the selectivity engine: the inputs a generated
// graph rarely reaches, which the seeded differential runner
// (selectivity_differential_test.cc, every kernel × threads × plane ×
// guard × batch) therefore does not cover. Each case asserts that its
// input reaches the boundary (the epoch wraps, the width is the one
// named, the fallback is taken) before it checks the build against the
// serial oracle (oracles::ReferenceSelectivities), on only the dimensions
// the boundary depends on:
//   * u32 epoch wraparound of the flat epoch array, in both passes;
//   * label-field and two-hop key / pair-field widths, and > 64 labels;
//   * the two-hop index's entries against a brute-force walk;
//   * the kMaxMarkerEntries boundary, where the emission-arena fallback
//     takes over, and the two-hop index's key-space and size fallbacks;
//   * nodes whose groups are not all flat, which keep the 1-hop path;
//   * the pair guard first tripping at depth k − 1, inside the two-hop
//     pass;
//   * per-worker counters on cache lines of their own;
//   * a graph whose labels all lack edges.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/eval_context.h"
#include "engine/thread_pool.h"
#include "gen/generator.h"
#include "gen/label_assigner.h"
#include "graph/graph_builder.h"
#include "oracles/selectivity_oracle.h"
#include "path/pair_set.h"
#include "path/selectivity.h"

namespace pathest {
namespace {

Graph ErdosRenyiGraph(size_t num_vertices, size_t num_edges,
                      size_t num_labels, uint64_t seed) {
  UniformLabelAssigner labels(num_labels);
  ErdosRenyiParams params;
  params.num_vertices = num_vertices;
  params.num_edges = num_edges;
  params.seed = seed;
  auto g = GenerateErdosRenyi(params, &labels);
  PATHEST_CHECK(g.ok(), "Erdős–Rényi generation failed");
  return std::move(g).ValueOrDie();
}

// The build of `g` on one worker must equal the oracle's at every listed
// kernel.
void ExpectBuildMatchesOracle(const Graph& g, size_t k,
                              std::initializer_list<PairKernel> kernels) {
  auto reference = oracles::ReferenceSelectivities(g, k);
  ASSERT_TRUE(reference.ok());
  for (PairKernel kernel : kernels) {
    SelectivityOptions options;
    options.kernel = kernel;
    auto map = ComputeSelectivities(g, k, options);
    ASSERT_TRUE(map.ok()) << map.status().ToString();
    EXPECT_EQ(map->values(), reference->values())
        << "k=" << k << " kernel=" << PairKernelName(kernel);
  }
}

TEST(FusedSelectivityTest, TaskCountAndThreadResolution) {
  EXPECT_EQ(SelectivityTaskCount(6, 4), 36u);
  EXPECT_EQ(SelectivityTaskCount(6, 2), 6u);

  SelectivityOptions options;
  options.num_threads = 64;
  // Builds scale to |L|² workers, not |L|.
  EXPECT_EQ(ResolvedNumThreads(options, 6, 4), 36u);
  EXPECT_EQ(ResolvedNumThreads(options, 6, 2), 6u);
  options.num_threads = 8;
  EXPECT_EQ(ResolvedNumThreads(options, 6, 4), 8u);
  options.num_threads = 0;  // one per hardware core
  EXPECT_EQ(ResolvedNumThreads(options, 6, 4),
            std::min<size_t>(ThreadPool::DefaultThreads(), 36));
}

TEST(FusedSelectivityTest, KernelNamesAreStable) {
  // bench_micro_selectivity --json writes these names into its rows.
  EXPECT_STREQ(PairKernelName(PairKernel::kAuto), "auto");
  EXPECT_STREQ(PairKernelName(PairKernel::kSparse), "sparse");
  EXPECT_STREQ(PairKernelName(PairKernel::kDense), "dense");
}

// ---------------------------------------------------------------------------
// Flat sparse kernel

// Resets the flat-epoch test hook even when an assertion bails out.
struct InitialEpochGuard {
  explicit InitialEpochGuard(uint32_t epoch) {
    FusedExtender::SetInitialEpochForTesting(epoch);
  }
  ~InitialEpochGuard() { FusedExtender::SetInitialEpochForTesting(0); }
};

TEST(FlatKernelTest, EpochWraparoundClearsLowMarksOfBothPasses) {
  // A fresh extender counts Y, one group holding every vertex: its one
  // scope (epoch 1) marks every key of the 1-hop pass (CountAll) or of the
  // two-hop pass (CountAll2). Restarted h scopes short of the wrap, it
  // counts a node X whose groups are all flat, one scope each, and more
  // than h + 1: X's group h + 1 runs right after the wrap with epoch 1
  // again, so unless the clear reached that part of the array, its keys
  // count as already seen.
  const Graph g = ErdosRenyiGraph(100, 1200, 3, 57);
  const size_t num_labels = g.num_labels();
  const TwoHopIndex index = TwoHopIndex::Build(g, 4, PairKernel::kSparse);
  PairSet y;
  y.srcs = {0};
  y.offsets = {0, g.num_vertices()};
  for (VertexId v = 0; v < g.num_vertices(); ++v) y.targets.push_back(v);
  // X, with the reference counts of a fresh extender.
  PairSet x;
  std::vector<uint64_t> counts(num_labels, 0);
  std::vector<uint64_t> pair_counts;
  {
    FusedExtender fused(g.num_vertices(), num_labels);
    fused.Bind(g, PairKernel::kSparse, &index);
    std::vector<PairSet> children(num_labels);
    PairSet level1;
    InitialPairSet(g, 0, &level1);
    fused.ExtendAll(level1, children.data());
    x = children[1];
    ASSERT_TRUE(fused.TwoHopCovers(x));  // every group flat
    fused.CountAll(x, counts.data());
    const uint64_t* got = fused.CountAll2(x);
    pair_counts.assign(got, got + num_labels * num_labels);
  }
  for (uint32_t headroom : {1u, 4u}) {
    SCOPED_TRACE("headroom=" + std::to_string(headroom));
    ASSERT_GT(x.srcs.size(), headroom + 1);  // the counter wraps
    {
      FusedExtender fused(g.num_vertices(), num_labels);
      fused.Bind(g, PairKernel::kSparse, &index);
      std::vector<uint64_t> scratch(num_labels, 0);
      fused.CountAll(y, scratch.data());
      InitialEpochGuard guard(UINT32_MAX - headroom);
      fused.Bind(g, PairKernel::kSparse, &index);
      std::vector<uint64_t> again(num_labels, 0);
      fused.CountAll(x, again.data());
      EXPECT_EQ(again, counts) << "1-hop part";
    }
    {
      FusedExtender fused(g.num_vertices(), num_labels);
      fused.Bind(g, PairKernel::kSparse, &index);
      fused.CountAll2(y);
      InitialEpochGuard guard(UINT32_MAX - headroom);
      fused.Bind(g, PairKernel::kSparse, &index);
      const uint64_t* got = fused.CountAll2(x);
      EXPECT_EQ(std::vector<uint64_t>(got, got + num_labels * num_labels),
                pair_counts)
          << "two-hop part";
    }
  }
}

TEST(FlatKernelTest, EpochWraparoundInsideABuild) {
  // One worker under the sparse kernel opens a flat scope per level-1
  // group in its pre-passes, so starting the counter fewer scopes short
  // of the wrap than there are level-1 groups wraps it inside the build:
  // in the first pre-passes, or mid-task with the marks of the last epochs
  // before the wrap, 1-hop and two-hop, still in the array.
  const Graph g = ErdosRenyiGraph(120, 700, 5, 57);
  size_t level1_groups = 0;
  for (LabelId l = 0; l < g.num_labels(); ++l) {
    level1_groups += oracles::OracleLabelPairs(g, l).srcs.size();
  }
  for (uint32_t headroom : {2u, 300u}) {
    ASSERT_GT(level1_groups, headroom);
    InitialEpochGuard guard(UINT32_MAX - headroom);
    for (size_t k : {4u, 5u}) {
      SCOPED_TRACE("headroom=" + std::to_string(headroom));
      ExpectBuildMatchesOracle(g, k, {PairKernel::kSparse});
    }
  }
}

TEST(FlatKernelTest, LabelFieldWidthsAndMoreThan64Labels) {
  // Packed keys carry ⌈log₂|L|⌉ label bits: |L| = 3 pads to 2 bits (the
  // fourth slot is never a label), |L| = 70 > 64 to 7 bits, past the
  // 64-label bitmask the leaf pass once had and through the per-label
  // bitset and threshold arrays.
  const struct {
    size_t labels, vertices, edges;
    uint32_t shift;
  } cases[] = {{3, 220, 1800, 2}, {70, 80, 4000, 7}};
  for (const auto& c : cases) {
    const Graph g = ErdosRenyiGraph(c.vertices, c.edges, c.labels, 8);
    ASSERT_EQ(g.num_labels(), c.labels);
    ASSERT_TRUE(g.has_packed_edges());
    ASSERT_EQ(g.PackedEdges().label_shift, c.shift);
    ExpectBuildMatchesOracle(
        g, 3, {PairKernel::kAuto, PairKernel::kSparse, PairKernel::kDense});
  }
}

TEST(FlatKernelTest, PerWorkerCountersOwnWholeCacheLines) {
  // The counters bumped once per edge (the context's leaf counts, the
  // extender's flat and two-hop counts) must start on a 64-byte line and
  // span whole lines, so neighbouring workers' arrays never share one. |L|
  // = 3 gives 4 flat counters (half a line), 9 two-hop counters, 3 leaf
  // counters: each padded. Four contexts stand in for four workers.
  const Graph g = ErdosRenyiGraph(60, 400, 3, 5);
  ASSERT_TRUE(g.has_packed_edges());
  const TwoHopIndex index = TwoHopIndex::Build(g, 4, PairKernel::kAuto);
  ASSERT_TRUE(index.enabled());
  std::vector<std::unique_ptr<EvalContext>> workers;
  std::vector<std::pair<uintptr_t, uintptr_t>> blocks;
  for (int w = 0; w < 4; ++w) {
    workers.push_back(std::make_unique<EvalContext>(g.num_vertices(),
                                                    g.num_labels(), 4));
    EvalContext& ctx = *workers.back();
    ctx.fused.Bind(g, PairKernel::kAuto, &index);
    const LineCounts* arrays[] = {&ctx.leaf_counts, &ctx.fused.flat_counts(),
                                  &ctx.fused.two_hop_counts()};
    const size_t sizes[] = {3, 4, 9};
    for (size_t a = 0; a < 3; ++a) {
      const LineCounts& counts = *arrays[a];
      const auto begin = reinterpret_cast<uintptr_t>(counts.data());
      EXPECT_EQ(counts.size(), sizes[a]) << "worker " << w << " array " << a;
      EXPECT_EQ(begin % kCacheLineBytes, 0u) << "worker " << w << " array "
                                             << a;
      EXPECT_EQ(counts.block_bytes() % kCacheLineBytes, 0u);
      EXPECT_GE(counts.block_bytes(), counts.size() * sizeof(uint64_t));
      blocks.push_back({begin, begin + counts.block_bytes()});
    }
  }
  // Whole, line-aligned blocks that do not overlap share no line.
  std::sort(blocks.begin(), blocks.end());
  for (size_t i = 1; i < blocks.size(); ++i) {
    EXPECT_LE(blocks[i - 1].second, blocks[i].first);
  }
}

TEST(FlatKernelTest, MarkerBudgetBoundarySwitchesToArenas) {
  // 64 labels pack into 6 bits, so |V| = kMaxMarkerEntries / 64 is the
  // largest graph on the flat epoch array and one more vertex takes the
  // emission-arena fallback. Both sides must give the oracle's map, and
  // the fallback must emit each child in discovery order, as the flat loop
  // and the oracle's join do. Only the sparse path turns at this boundary,
  // so the build runs kAuto, which keeps this sparse graph on it.
  constexpr size_t kLabels = 64;
  const size_t flat_vertices = FusedExtender::kMaxMarkerEntries / kLabels;
  for (size_t num_vertices : {flat_vertices, flat_vertices + 1}) {
    const Graph g = ErdosRenyiGraph(num_vertices, 4000, kLabels, 5);
    ASSERT_EQ(g.num_vertices(), num_vertices);
    FusedExtender fused(g.num_vertices(), g.num_labels());
    fused.Bind(g, PairKernel::kSparse);
    ASSERT_EQ(fused.flat_sparse(), num_vertices == flat_vertices);
    ExpectBuildMatchesOracle(g, 3, {PairKernel::kAuto});
    std::vector<uint8_t> seen(g.num_vertices(), 0);
    std::vector<PairSet> children(kLabels);
    PairSet level1;
    PairSet expected;
    for (LabelId root = 0; root < kLabels; ++root) {
      InitialPairSet(g, root, &level1);
      fused.ExtendAll(level1, children.data());
      for (LabelId l = 0; l < kLabels; ++l) {
        oracles::OracleJoin(g, level1, l, &seen, &expected);
        ASSERT_EQ(children[l].srcs, expected.srcs) << root << "/" << l;
        ASSERT_EQ(children[l].offsets, expected.offsets) << root << "/" << l;
        ASSERT_EQ(children[l].targets, expected.targets) << root << "/" << l;
      }
    }
  }
}

TEST(FlatKernelTest, AllLabelsEdgeless) {
  // No label has edges, so no group size is dense for all of them and the
  // flat loop takes no group at all: every group goes to the segment walk
  // and drains arenas that stay empty.
  GraphBuilder builder;
  builder.AddLabel("a");
  builder.AddLabel("b");
  builder.SetNumVertices(8);
  auto built = builder.Build();
  ASSERT_TRUE(built.ok());
  const Graph& g = *built;
  FusedExtender fused(g.num_vertices(), g.num_labels());
  fused.Bind(g, PairKernel::kAuto);
  EXPECT_TRUE(fused.flat_sparse());
  PairSet parent;
  parent.srcs = {0, 5};
  parent.offsets = {0, 2, 3};
  parent.targets = {1, 2, 7};
  uint64_t counts[2] = {0, 0};
  fused.CountAll(parent, counts);
  EXPECT_EQ(counts[0], 0u);
  EXPECT_EQ(counts[1], 0u);
  std::vector<PairSet> children(2);
  fused.ExtendAll(parent, children.data());
  for (const PairSet& child : children) {
    EXPECT_TRUE(child.srcs.empty());
    EXPECT_EQ(child.offsets, std::vector<uint64_t>{0});
    EXPECT_TRUE(child.targets.empty());
  }
}

// ---------------------------------------------------------------------------
// Two-hop leaf pass

TEST(TwoHopTest, IndexListsDistinctTwoHopKeys) {
  // Brute force over every walk t -a-> x -b-> u: the index of t must hold
  // exactly the distinct (u, p = a·|L| + b), each entry the key u·|L|² + p
  // tagged with p above it.
  const Graph g = ErdosRenyiGraph(60, 400, 5, 3);
  const TwoHopIndex index = TwoHopIndex::Build(g, 4, PairKernel::kAuto);
  ASSERT_TRUE(index.enabled());
  const uint32_t num_labels = static_cast<uint32_t>(g.num_labels());
  ASSERT_EQ(g.num_vertices(), 60u);
  EXPECT_EQ(index.key_space(), 60u * 25u);
  EXPECT_EQ(index.key_bits(), 11u);  // ⌈log₂ 1500⌉
  size_t total = 0;
  for (VertexId t = 0; t < g.num_vertices(); ++t) {
    std::set<uint32_t> expected;
    for (LabelId a = 0; a < num_labels; ++a) {
      const Graph::CsrView first = g.ForwardView(a);
      for (uint64_t e = first.offsets[t]; e < first.offsets[t + 1]; ++e) {
        const VertexId x = first.targets[e];
        for (LabelId b = 0; b < num_labels; ++b) {
          const Graph::CsrView second = g.ForwardView(b);
          for (uint64_t f = second.offsets[x]; f < second.offsets[x + 1];
               ++f) {
            const uint32_t pair = a * num_labels + b;
            expected.insert((pair << index.key_bits()) |
                            (second.targets[f] * num_labels * num_labels +
                             pair));
          }
        }
      }
    }
    const std::vector<uint32_t> got(index.entries() + index.offsets()[t],
                                    index.entries() + index.offsets()[t + 1]);
    EXPECT_EQ(got.size(), expected.size()) << "t=" << t;  // distinct
    EXPECT_EQ(std::set<uint32_t>(got.begin(), got.end()), expected)
        << "t=" << t;
    total += expected.size();
  }
  EXPECT_EQ(index.size(), total);
  // The leaf pass starts at depth k - 2 of a prefix task, so k >= 4; the
  // forced dense kernel never runs the flat loop the pass extends.
  EXPECT_FALSE(TwoHopIndex::Eligible(g, 3, PairKernel::kAuto));
  EXPECT_FALSE(TwoHopIndex::Eligible(g, 4, PairKernel::kDense));
  EXPECT_FALSE(TwoHopIndex::Build(g, 6, PairKernel::kDense).enabled());
  EXPECT_TRUE(TwoHopIndex::Eligible(g, 4, PairKernel::kSparse));
}

TEST(TwoHopTest, KeyAndPairFieldWidths) {
  // A two-hop entry is (p << key_bits) | key with key = u·|L|² + p and
  // p = a·|L| + b: on 40 vertices, |L| = 1, 3, 5, 6, 7, 9 give keys of 6,
  // 9, 10, 11, 11 and 12 bits under label pairs of 0, 4, 5, 6, 6 and 7
  // bits. The forced sparse kernel runs the pass at every depth-2 node.
  const struct {
    size_t labels;
    uint32_t key_bits, pair_bits;
  } cases[] = {{1, 6, 0}, {3, 9, 4},  {5, 10, 5},
               {6, 11, 6}, {7, 11, 6}, {9, 12, 7}};
  for (const auto& c : cases) {
    SCOPED_TRACE("labels=" + std::to_string(c.labels));
    const Graph g =
        ErdosRenyiGraph(40, 30 + 20 * c.labels, c.labels, 100 + c.labels);
    const TwoHopIndex index = TwoHopIndex::Build(g, 4, PairKernel::kSparse);
    ASSERT_TRUE(index.enabled());
    ASSERT_EQ(index.key_bits(), c.key_bits);
    uint32_t max_pair = 0;
    for (size_t e = 0; e < index.size(); ++e) {
      max_pair = std::max(max_pair, index.entries()[e] >> index.key_bits());
    }
    ASSERT_LT(max_pair, c.labels * c.labels);
    ASSERT_LE(std::bit_width(max_pair), c.pair_bits);
    // The pass starts at depth k - 2 of a prefix task, so k >= 4; the
    // forced dense kernel never runs the flat loop the pass extends.
    EXPECT_FALSE(TwoHopIndex::Eligible(g, 3, PairKernel::kSparse));
    EXPECT_FALSE(TwoHopIndex::Eligible(g, 4, PairKernel::kDense));
    ExpectBuildMatchesOracle(g, 4, {PairKernel::kSparse});
  }
}

TEST(TwoHopTest, NodesWithADenseGroupKeepTheOneHopPath) {
  // A sparse background plus one hub that fans out to half the graph
  // under label 0: at a depth-2 node (l1, 0), the sources with an l1-edge
  // into the hub hold groups past the all-labels-dense size and the
  // others stay small. Such a node is not covered although some of its
  // groups alone would be; wholly small nodes take the two-hop pass.
  const Graph sparse = ErdosRenyiGraph(240, 900, 3, 71);
  GraphBuilder builder;
  builder.Adopt(sparse.labels(), sparse.CollectEdges(),
                sparse.num_vertices());
  for (VertexId u = 1; u <= 120; ++u) builder.AddEdge(0, LabelId{0}, u);
  auto built = builder.Build();
  ASSERT_TRUE(built.ok());
  const Graph& g = *built;

  const TwoHopIndex index = TwoHopIndex::Build(g, 4, PairKernel::kAuto);
  ASSERT_TRUE(index.enabled());
  FusedExtender fused(g.num_vertices(), g.num_labels());
  fused.Bind(g, PairKernel::kAuto, &index);
  std::vector<PairSet> children(g.num_labels());
  PairSet level1;
  PairSet group;
  size_t covered = 0;
  size_t mixed = 0;
  for (LabelId root = 0; root < g.num_labels(); ++root) {
    InitialPairSet(g, root, &level1);
    fused.ExtendAll(level1, children.data());
    for (const PairSet& node : children) {
      if (node.size() == 0) continue;
      if (fused.TwoHopCovers(node)) {
        ++covered;
        continue;
      }
      for (size_t i = 0; i < node.srcs.size(); ++i) {
        group.srcs = {node.srcs[i]};
        group.offsets = {0, node.offsets[i + 1] - node.offsets[i]};
        group.targets.assign(node.targets.begin() + node.offsets[i],
                             node.targets.begin() + node.offsets[i + 1]);
        if (fused.TwoHopCovers(group)) {
          ++mixed;
          break;
        }
      }
    }
  }
  ASSERT_GT(mixed, 0u);
  ASSERT_GT(covered, 0u);
  ExpectBuildMatchesOracle(g, 4, {PairKernel::kAuto});
}

TEST(TwoHopTest, OverBudgetGraphsFallBack) {
  // Key space: with 6 labels, |V| = budget / 36 is the largest graph with
  // an index and one more vertex has none, while both keep the 1-hop
  // packed keys (3-bit label field).
  const size_t largest = kPackedKeyMaxEntries / 36;
  for (size_t num_vertices : {largest, largest + 1}) {
    const Graph g = ErdosRenyiGraph(num_vertices, 30000, 6, 13);
    ASSERT_TRUE(g.has_packed_edges());
    ASSERT_EQ(TwoHopIndex::Build(g, 4, PairKernel::kAuto).enabled(),
              num_vertices == largest);
    ExpectBuildMatchesOracle(g, 4, {PairKernel::kAuto});
  }
  // Size bound: a small dense one-label graph whose two-hop walks
  // Σ_{t→x} outdeg(x) (~300 · 150 · 150) exceed the budget although its
  // key space is tiny.
  const Graph dense = ErdosRenyiGraph(300, 45000, 1, 19);
  ASSERT_FALSE(TwoHopIndex::Eligible(dense, 4, PairKernel::kAuto));
  ASSERT_FALSE(TwoHopIndex::Build(dense, 4, PairKernel::kSparse).enabled());
  ExpectBuildMatchesOracle(dense, 4, {PairKernel::kAuto});
}

// The first path, in the DFS pre-order of the engines, of length at most
// `max_len` whose selectivity exceeds `guard` (leaves are never checked, so
// max_len is k - 1).
std::optional<LabelPath> FirstGuardViolation(const SelectivityMap& map,
                                             size_t max_len, uint64_t guard,
                                             LabelPath* path) {
  for (LabelId l = 0; l < map.space().num_labels(); ++l) {
    path->PushBack(l);
    const uint64_t f = map.Get(*path);
    if (f > guard) return *path;
    if (f > 0 && path->length() < max_len) {
      if (auto found = FirstGuardViolation(map, max_len, guard, path)) {
        return found;
      }
    }
    path->PopBack();
  }
  return std::nullopt;
}

TEST(TwoHopTest, GuardAtDepthKMinus1KeepsStatus) {
  // A guard every prefix up to depth k - 2 satisfies and some depth k - 1
  // child breaks: the two-hop pass counts those children with CountAll and
  // must report the first one in label order — the same status and path
  // string as the oracle, and the first violation in pre-order.
  const Graph g = ErdosRenyiGraph(90, 700, 3, 43);
  for (size_t k : {4u, 5u}) {
    ASSERT_TRUE(TwoHopIndex::Eligible(g, k, PairKernel::kSparse));
    auto full = oracles::ReferenceSelectivities(g, k);
    ASSERT_TRUE(full.ok());
    uint64_t shallow_max = 0;
    uint64_t deep_max = 0;
    full->space().ForEach([&](const LabelPath& path) {
      if (path.length() <= k - 2) {
        shallow_max = std::max(shallow_max, full->Get(path));
      } else if (path.length() == k - 1) {
        deep_max = std::max(deep_max, full->Get(path));
      }
    });
    ASSERT_GT(deep_max, shallow_max) << "k=" << k;
    for (uint64_t guard : {shallow_max, (shallow_max + deep_max) / 2}) {
      LabelPath scratch;
      const std::optional<LabelPath> first =
          FirstGuardViolation(*full, k - 1, guard, &scratch);
      ASSERT_TRUE(first.has_value());
      ASSERT_EQ(first->length(), k - 1);
      auto reference = oracles::ReferenceSelectivities(g, k, guard);
      ASSERT_FALSE(reference.ok());
      EXPECT_EQ(reference.status().ToString(),
                Status::ResourceExhausted(
                    "pair set exceeds max_pairs_per_prefix at path " +
                    first->ToIdString())
                    .ToString());
      SelectivityOptions options;
      options.max_pairs_per_prefix = guard;
      for (PairKernel kernel : {PairKernel::kAuto, PairKernel::kSparse}) {
        options.kernel = kernel;
        auto result = ComputeSelectivities(g, k, options);
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.status().ToString(), reference.status().ToString())
            << "k=" << k << " guard=" << guard
            << " kernel=" << PairKernelName(kernel);
      }
    }
  }
}

}  // namespace
}  // namespace pathest
