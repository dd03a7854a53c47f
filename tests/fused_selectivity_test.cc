// The engine contract (selectivity.h): the SelectivityMap is bit-identical
// across kernel ∈ {auto, sparse, dense} and num_threads ∈ {1, 2, 4}, and
// equal to the serial oracle's (oracles::ReferenceSelectivities, which
// shares no code with FusedExtender); the max_pairs_per_prefix abort
// status is identical too (the prefix tasks must reproduce the oracle's
// first violation in DFS pre-order exactly). Also covers the vertex-major
// view / adjacency-plane backed kernel against the single-path oracle
// (oracles::EvaluatePathPairs), shallow builds (k = 1, 2) that bypass the
// prefix tasks, >64-label graphs, task-count resolution, and the
// once-per-root callback contract under task decomposition.
//
// The FlatKernel tests pin down the label-fused flat sparse path of
// FusedExtender: packed (vertex << ⌈log₂|L|⌉) | label keys over one u32
// epoch array. Each checks the build against ReferenceSelectivities and
// EvaluatePathPairs at threads {1, 2, 4} on every plane kind the graph
// admits: u32 epoch wraparound, non-power-of-two and >64 label counts, the
// kMaxMarkerEntries boundary where the arena fallback takes over,
// ExtendAll's child contents and order against the oracle's join, and
// labels without edges on a graph dense enough for groups to leave the
// flat loop.
//
// The TwoHop tests pin down the two-hop leaf pass (TwoHopIndex and
// FusedExtender::CountAll2): the index contents, identity at every
// pair-field width, nodes that mix dense and sparse groups, the budget
// fallbacks, the pair guard at depth k - 1, and epoch wraparound inside
// the pass.

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "gen/generator.h"
#include "gen/label_assigner.h"
#include "graph/graph_builder.h"
#include "oracles/selectivity_oracle.h"
#include "path/pair_set.h"
#include "path/selectivity.h"
#include "test_util.h"

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

Graph ForestFireGraph(size_t num_vertices, size_t num_labels, uint64_t seed) {
  UniformLabelAssigner labels(num_labels);
  ForestFireParams params;
  params.num_vertices = num_vertices;
  params.seed = seed;
  auto g = GenerateForestFire(params, &labels);
  PATHEST_CHECK(g.ok(), "forest fire generation failed");
  return std::move(g).ValueOrDie();
}

SelectivityMap Compute(const Graph& g, size_t k, PairKernel kernel,
                       size_t threads) {
  SelectivityOptions options;
  options.kernel = kernel;
  options.num_threads = threads;
  auto map = ComputeSelectivities(g, k, options);
  PATHEST_CHECK(map.ok(), "selectivity computation failed");
  return std::move(map).ValueOrDie();
}

// The serial oracle's map of L_k on `g`.
SelectivityMap Reference(const Graph& g, size_t k) {
  auto map = oracles::ReferenceSelectivities(g, k);
  PATHEST_CHECK(map.ok(), "reference computation failed");
  return std::move(map).ValueOrDie();
}

// Asserts the full kernel × threads grid against the oracle's map.
void ExpectOracleInvariance(const Graph& g, size_t k) {
  const SelectivityMap baseline = Reference(g, k);
  for (PairKernel kernel :
       {PairKernel::kAuto, PairKernel::kSparse, PairKernel::kDense}) {
    for (size_t threads : {1u, 2u, 4u}) {
      const SelectivityMap map = Compute(g, k, kernel, threads);
      EXPECT_EQ(map.values(), baseline.values())
          << "kernel=" << PairKernelName(kernel) << " threads=" << threads;
    }
  }
}

// Rebuilds `g`'s edge multiset under a forced plane policy.
Graph RebuildWithPlane(const Graph& g, PlanePolicy policy) {
  GraphBuilder builder;
  builder.Adopt(g.labels(), g.CollectEdges(), g.num_vertices());
  GraphBuildOptions options;
  options.plane = policy;
  auto built = builder.Build(options);
  PATHEST_CHECK(built.ok(), "plane rebuild failed");
  return std::move(built).ValueOrDie();
}

TEST(FusedSelectivityTest, PlaneKindInvariance) {
  // The plane dimension of the grid: no plane and the dense plane, forced
  // and as the plane rule (DensePlanePays) picks it for this graph, must
  // all give the oracle's map across kernel × threads.
  const Graph base = ErdosRenyiGraph(200, 2400, 3, 29);
  const SelectivityMap baseline = Reference(base, 3);
  const struct {
    PlanePolicy policy;
    PlaneKind want;
  } cases[] = {
      {PlanePolicy::kNone, PlaneKind::kNone},
      {PlanePolicy::kDense, PlaneKind::kDense},
      {PlanePolicy::kAuto, PlaneKind::kDense},
  };
  for (const auto& c : cases) {
    const Graph g = RebuildWithPlane(base, c.policy);
    ASSERT_EQ(g.AdjacencyBitmaps().kind, c.want);
    for (PairKernel kernel :
         {PairKernel::kAuto, PairKernel::kSparse, PairKernel::kDense}) {
      for (size_t threads : {1u, 2u, 4u}) {
        const SelectivityMap map = Compute(g, 3, kernel, threads);
        EXPECT_EQ(map.values(), baseline.values())
            << "plane=" << PlaneKindName(c.want)
            << " kernel=" << PairKernelName(kernel) << " threads=" << threads;
      }
    }
  }
}

TEST(FusedSelectivityTest, SparseErdosRenyi) {
  ExpectOracleInvariance(ErdosRenyiGraph(300, 600, 4, 13), /*k=*/4);
}

TEST(FusedSelectivityTest, MidDensityErdosRenyi) {
  ExpectOracleInvariance(ErdosRenyiGraph(200, 2400, 3, 29), /*k=*/4);
}

TEST(FusedSelectivityTest, DenseErdosRenyi) {
  // Near-complete: the leaf cells run the adjacency-plane row unions.
  ExpectOracleInvariance(ErdosRenyiGraph(60, 1500, 3, 7), /*k=*/4);
}

TEST(FusedSelectivityTest, ForestFire) {
  ExpectOracleInvariance(ForestFireGraph(350, 5, 17), /*k=*/4);
}

TEST(FusedSelectivityTest, ShallowBuildsBypassPrefixTasks) {
  // k = 1 and k = 2 complete entirely in the pre-pass (no prefix tasks);
  // they must still agree with the oracle.
  const Graph g = ForestFireGraph(250, 4, 99);
  for (size_t k : {1u, 2u}) {
    ExpectOracleInvariance(g, k);
    EXPECT_EQ(SelectivityTaskCount(g.num_labels(), k), g.num_labels());
  }
}

TEST(FusedSelectivityTest, RandomizedSeedSweep) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    ExpectOracleInvariance(ErdosRenyiGraph(120, 40 * seed * seed, 4, seed),
                             /*k=*/3);
    ExpectOracleInvariance(ForestFireGraph(100 + 30 * seed, 4, seed),
                             /*k=*/3);
  }
}

TEST(FusedSelectivityTest, AgreesWithIndependentPathOracle) {
  // EvaluatePathPairs shares no code with the fused kernel (per-label
  // loops, no vertex-major view, no adjacency plane, no incremental
  // canonical index) — full-domain agreement pins down both the kernel
  // and the index bookkeeping.
  const Graph g = ErdosRenyiGraph(120, 1400, 3, 5);
  const size_t k = 4;
  const SelectivityMap fused = Compute(g, k, PairKernel::kAuto, 2);
  PathSpace space(g.num_labels(), k);
  space.ForEach([&](const LabelPath& path) {
    auto pairs = oracles::EvaluatePathPairs(g, path);
    ASSERT_TRUE(pairs.ok()) << path.ToIdString();
    EXPECT_EQ(pairs->size(), fused.Get(path)) << path.ToIdString();
  });
}

TEST(FusedSelectivityTest, MoreThan64LabelsSupported) {
  // Wide label sets exercise the per-label bitset and threshold arrays well
  // past the old 64-label bitmask ceiling; k = 3 exercises the |L|² = 4900
  // prefix tasks.
  const Graph g = ErdosRenyiGraph(80, 4000, 70, 3);
  ASSERT_EQ(g.num_labels(), 70u);
  const SelectivityMap baseline = Reference(g, 2);
  for (size_t threads : {1u, 4u}) {
    const SelectivityMap map = Compute(g, 2, PairKernel::kAuto, threads);
    EXPECT_EQ(map.values(), baseline.values()) << "threads=" << threads;
  }
  const SelectivityMap deep_baseline = Reference(g, 3);
  const SelectivityMap deep = Compute(g, 3, PairKernel::kAuto, 4);
  EXPECT_EQ(deep.values(), deep_baseline.values());
}

TEST(FusedSelectivityTest, AbortStatusMatchesOracle) {
  // Level-1 violations surface from the pre-pass, level-2 ones from the
  // cell guard, deeper ones from inside prefix tasks; all three must
  // reproduce the oracle's first-violation path and message.
  const Graph g = ErdosRenyiGraph(80, 1200, 3, 5);
  uint64_t level1_max = 0;
  uint64_t level2_max = 0;
  for (LabelId a = 0; a < g.num_labels(); ++a) {
    auto f1 = oracles::EvaluatePathSelectivity(g, LabelPath{a});
    ASSERT_TRUE(f1.ok());
    level1_max = std::max(level1_max, *f1);
    for (LabelId b = 0; b < g.num_labels(); ++b) {
      auto f2 = oracles::EvaluatePathSelectivity(g, LabelPath{a, b});
      ASSERT_TRUE(f2.ok());
      level2_max = std::max(level2_max, *f2);
    }
  }
  // Guards tripping at level 1, level 2, and (when the graph densifies
  // deeper) strictly below level 2. level1_max - 1 and level2_max - 1 must
  // fail by construction; for each guard the engine must reproduce the
  // oracle's outcome exactly, whatever it is.
  size_t failures_checked = 0;
  for (uint64_t guard : {level1_max - 1, level1_max, level2_max - 1,
                         level2_max}) {
    auto reference = oracles::ReferenceSelectivities(g, 4, guard);
    if (!reference.ok()) {
      ASSERT_EQ(reference.status().code(), StatusCode::kResourceExhausted);
      ++failures_checked;
    }
    for (size_t threads : {1u, 2u, 4u}) {
      SelectivityOptions options;
      options.max_pairs_per_prefix = guard;
      options.num_threads = threads;
      auto result = ComputeSelectivities(g, 4, options);
      ASSERT_EQ(result.ok(), reference.ok())
          << "guard=" << guard << " threads=" << threads;
      if (!reference.ok()) {
        EXPECT_EQ(result.status().ToString(), reference.status().ToString())
            << "guard=" << guard << " threads=" << threads;
      } else {
        EXPECT_EQ(result->values(), reference->values())
            << "guard=" << guard << " threads=" << threads;
      }
    }
  }
  EXPECT_GE(failures_checked, 2u);

  // Shallow builds: level 1 is guarded even when it is the leaf level
  // (k = 1), while the leaves of a k = 2 build are only counted, so a
  // guard of level1_max fails nowhere there.
  for (size_t k : {1u, 2u}) {
    for (uint64_t guard : {level1_max - 1, level1_max}) {
      auto reference = oracles::ReferenceSelectivities(g, k, guard);
      ASSERT_EQ(reference.ok(), guard == level1_max) << "k=" << k;
      SelectivityOptions options;
      options.max_pairs_per_prefix = guard;
      auto result = ComputeSelectivities(g, k, options);
      ASSERT_EQ(result.ok(), reference.ok()) << "k=" << k << " guard=" << guard;
      if (!reference.ok()) {
        EXPECT_EQ(result.status().ToString(), reference.status().ToString())
            << "k=" << k << " guard=" << guard;
      } else {
        EXPECT_EQ(result->values(), reference->values())
            << "k=" << k << " guard=" << guard;
      }
    }
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
}

TEST(FusedSelectivityTest, ThreadCountAboveTaskCountIsClamped) {
  Graph g = testing_util::SmallGraph();  // 3 labels -> 9 prefix tasks
  SelectivityOptions options;
  options.num_threads = 64;  // clamped to |L|² internally
  auto map = ComputeSelectivities(g, 3, options);
  ASSERT_TRUE(map.ok());
  auto baseline = ComputeSelectivities(g, 3);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(map->values(), baseline->values());
}

TEST(FusedSelectivityTest, ProgressAndLabelTimeFireOncePerRoot) {
  // Under task decomposition a root's subtree spans many tasks, but the
  // callbacks must still fire exactly once per root (documented contract),
  // serialized behind the engine's mutex.
  Graph g = ForestFireGraph(300, 6, 3);
  for (size_t threads : {1u, 4u}) {
    SelectivityOptions options;
    options.num_threads = threads;
    std::multiset<LabelId> progress_roots;
    std::vector<double> times;
    options.progress = [&](LabelId root) { progress_roots.insert(root); };
    options.label_time = [&](LabelId, double ms) {
      EXPECT_GE(ms, 0.0);
      times.push_back(ms);
    };
    auto map = ComputeSelectivities(g, 3, options);
    ASSERT_TRUE(map.ok());
    ASSERT_EQ(progress_roots.size(), g.num_labels());
    for (LabelId l = 0; l < g.num_labels(); ++l) {
      EXPECT_EQ(progress_roots.count(l), 1u) << "root " << l;
    }
    EXPECT_EQ(times.size(), g.num_labels());
  }
}

// ---------------------------------------------------------------------------
// Flat sparse kernel

// Every plane kind `base` admits: none, and dense when the plane fits the
// cap. The dense one is forced, so graphs the plane rule leaves without a
// plane still run the slab and AccumulateDense's row ORs.
std::vector<Graph> PlaneVariants(const Graph& base) {
  std::vector<Graph> variants;
  variants.push_back(RebuildWithPlane(base, PlanePolicy::kNone));
  Graph dense = RebuildWithPlane(base, PlanePolicy::kDense);
  if (dense.AdjacencyBitmaps().kind == PlaneKind::kDense) {
    variants.push_back(std::move(dense));
  }
  return variants;
}

// The build of `g` must equal ReferenceSelectivities at every listed
// kernel and every thread count, and EvaluatePathPairs must agree with it
// on every `oracle_stride`-th path of L_k.
void ExpectFusedMatchesOracles(
    const Graph& g, size_t k, uint64_t oracle_stride,
    std::initializer_list<PairKernel> kernels = {
        PairKernel::kAuto, PairKernel::kSparse, PairKernel::kDense}) {
  const std::string plane = PlaneKindName(g.AdjacencyBitmaps().kind);
  const SelectivityMap reference = Reference(g, k);
  for (PairKernel kernel : kernels) {
    for (size_t threads : {1u, 2u, 4u}) {
      const SelectivityMap map = Compute(g, k, kernel, threads);
      EXPECT_EQ(map.values(), reference.values())
          << "plane=" << plane << " kernel=" << PairKernelName(kernel)
          << " threads=" << threads;
    }
  }
  uint64_t index = 0;
  reference.space().ForEach([&](const LabelPath& path) {
    if (index++ % oracle_stride != 0) return;
    auto pairs = oracles::EvaluatePathPairs(g, path);
    ASSERT_TRUE(pairs.ok()) << path.ToIdString();
    EXPECT_EQ(pairs->size(), reference.Get(path))
        << "plane=" << plane << " path=" << path.ToIdString();
  });
}

// Resets the flat-epoch test hook even when an assertion bails out.
struct InitialEpochGuard {
  explicit InitialEpochGuard(uint32_t epoch) {
    FusedExtender::SetInitialEpochForTesting(epoch);
  }
  ~InitialEpochGuard() { FusedExtender::SetInitialEpochForTesting(0); }
};

TEST(FlatKernelTest, EpochWraparoundClearsStaleMarks) {
  // Every context starts its u32 epoch a few groups short of UINT32_MAX,
  // so each build wraps (and clears the epoch array) within its first
  // handful of groups — or, from further back, in mid-task with marks of
  // the last epochs before the wrap still in the array.
  const Graph base = ErdosRenyiGraph(150, 1200, 3, 41);
  for (uint32_t headroom : {2u, 300u}) {
    InitialEpochGuard guard(UINT32_MAX - headroom);
    for (const Graph& g : PlaneVariants(base)) {
      ExpectFusedMatchesOracles(g, /*k=*/4, /*oracle_stride=*/1);
    }
  }
}

TEST(FlatKernelTest, NonPowerOfTwoLabelCountPadsKeys) {
  // |L| = 3 packs labels into 2 bits: key & mask never reaches the unused
  // fourth slot, and key >> shift recovers every target.
  const Graph base = ErdosRenyiGraph(220, 1800, 3, 8);
  for (const Graph& g : PlaneVariants(base)) {
    ASSERT_EQ(g.num_labels(), 3u);
    ExpectFusedMatchesOracles(g, /*k=*/4, /*oracle_stride=*/1);
  }
}

TEST(FlatKernelTest, SeventyLabelsUseSevenBitKeys) {
  // |L| = 70 > 64: 7-bit label fields padded to 128 slots per vertex.
  const Graph base = ErdosRenyiGraph(90, 3000, 70, 17);
  for (const Graph& g : PlaneVariants(base)) {
    ASSERT_EQ(g.num_labels(), 70u);
    ExpectFusedMatchesOracles(g, /*k=*/3, /*oracle_stride=*/97);
  }
}

TEST(FlatKernelTest, MarkerBudgetBoundarySwitchesToArenas) {
  // 64 labels pack into 6 bits, so |V| = kMaxMarkerEntries / 64 is the
  // largest graph on the flat epoch array and one more vertex takes the
  // emission-arena fallback. Both sides must give the same maps. A dense
  // plane cannot exist at this size (|V|² · |L| / 8 bytes is far over its
  // cap), so the only plane kind here is none; the forced dense
  // kernel (a 1024-word bitmap drain per group and label) is left out, as
  // it never reaches the sparse path this boundary is about.
  constexpr size_t kLabels = 64;
  const size_t flat_vertices = FusedExtender::kMaxMarkerEntries / kLabels;
  for (size_t num_vertices : {flat_vertices, flat_vertices + 1}) {
    const Graph base = ErdosRenyiGraph(num_vertices, 4000, kLabels, 5);
    ASSERT_EQ(base.num_vertices(), num_vertices);
    FusedExtender probe(base.num_vertices(), base.num_labels());
    probe.Bind(base, PairKernel::kAuto);
    EXPECT_EQ(probe.flat_sparse(), num_vertices == flat_vertices);
    for (const Graph& g : PlaneVariants(base)) {
      ExpectFusedMatchesOracles(g, /*k=*/3, /*oracle_stride=*/1031,
                                {PairKernel::kAuto, PairKernel::kSparse});
    }
  }
}

// ExtendAll must reproduce the oracle's per-label join for every label:
// the same sources, offsets and — under the sparse kernel, where both emit
// in discovery order — the same targets in the same order. Under the other
// kernels a dense group's targets come out ascending, so they may come out
// in another order but never as another set. Checked on the level-1 sets
// and, for larger groups, on every level-2 set. CountAll must count what
// ExtendAll materializes.
void ExpectExtendAllMatchesPerLabel(const Graph& g, PairKernel kernel) {
  const size_t num_labels = g.num_labels();
  FusedExtender fused(g.num_vertices(), num_labels);
  fused.Bind(g, kernel);
  std::vector<uint8_t> seen(g.num_vertices(), 0);
  std::vector<PairSet> children(num_labels);
  std::vector<PairSet> grandchildren(num_labels);
  std::vector<uint64_t> counts(num_labels);
  PairSet level1;
  PairSet expected;
  const auto check = [&](const PairSet& parent, const PairSet* got,
                         const std::string& where) {
    std::fill(counts.begin(), counts.end(), 0);
    fused.CountAll(parent, counts.data());
    for (LabelId l = 0; l < num_labels; ++l) {
      oracles::OracleJoin(g, parent, l, &seen, &expected);
      const PairSet& child = got[l];
      const std::string at = where + "/" + std::to_string(l) +
                             " kernel=" + PairKernelName(kernel);
      ASSERT_EQ(child.srcs, expected.srcs) << at;
      ASSERT_EQ(child.offsets, expected.offsets) << at;
      EXPECT_EQ(counts[l], child.size()) << at;
      if (kernel == PairKernel::kSparse) {
        EXPECT_EQ(child.targets, expected.targets) << at;
        continue;
      }
      for (size_t i = 0; i < child.srcs.size(); ++i) {
        std::vector<VertexId> a(child.targets.begin() + child.offsets[i],
                                child.targets.begin() + child.offsets[i + 1]);
        std::vector<VertexId> b(
            expected.targets.begin() + expected.offsets[i],
            expected.targets.begin() + expected.offsets[i + 1]);
        std::sort(a.begin(), a.end());
        std::sort(b.begin(), b.end());
        EXPECT_EQ(a, b) << at << " group " << i;
      }
    }
  };
  for (LabelId root = 0; root < num_labels; ++root) {
    InitialPairSet(g, root, &level1);
    fused.ExtendAll(level1, children.data());
    check(level1, children.data(), std::to_string(root));
    for (LabelId l = 0; l < num_labels; ++l) {
      fused.ExtendAll(children[l], grandchildren.data());
      check(children[l], grandchildren.data(),
            std::to_string(root) + "/" + std::to_string(l));
    }
  }
}

TEST(FlatKernelTest, ExtendAllChildContentsAndOrder) {
  for (const Graph& g : PlaneVariants(ErdosRenyiGraph(160, 2600, 3, 23))) {
    for (PairKernel kernel :
         {PairKernel::kAuto, PairKernel::kSparse, PairKernel::kDense}) {
      ExpectExtendAllMatchesPerLabel(g, kernel);
    }
  }
  ExpectExtendAllMatchesPerLabel(ForestFireGraph(300, 5, 4),
                                 PairKernel::kSparse);
  // The arena fallback also emits in discovery order.
  const Graph wide = ErdosRenyiGraph(
      FusedExtender::kMaxMarkerEntries / 64 + 1, 6000, 64, 9);
  ExpectExtendAllMatchesPerLabel(wide, PairKernel::kSparse);
}

// `base` with one more label, `extra`, that carries no edges.
Graph WithEdgelessLabel(const Graph& base, const std::string& extra) {
  LabelDictionary labels = base.labels();
  labels.Intern(extra);
  GraphBuilder builder;
  builder.Adopt(std::move(labels), base.CollectEdges(), base.num_vertices());
  auto built = builder.Build();
  PATHEST_CHECK(built.ok(), "edgeless-label rebuild failed");
  return std::move(built).ValueOrDie();
}

TEST(FlatKernelTest, EdgelessLabelOnDenseGraph) {
  // A label without edges never turns dense (its threshold is "never"),
  // while the dense graph's level-1 groups (~10 members per label) reach
  // the size at which every label WITH edges is dense, so they leave the
  // flat loop for the segment walk (or the slab) and drain every label —
  // the edgeless one included, whose emission arena must exist, empty.
  const Graph base =
      WithEdgelessLabel(ErdosRenyiGraph(200, 6000, 3, 61), "edgeless");
  ASSERT_EQ(base.num_labels(), 4u);
  ASSERT_EQ(base.LabelCardinality(3), 0u);
  for (const Graph& g : PlaneVariants(base)) {
    ExpectFusedMatchesOracles(g, /*k=*/3, /*oracle_stride=*/1);
  }
  ExpectExtendAllMatchesPerLabel(base, PairKernel::kAuto);
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

// Checks CountAll2 of `fused`, bound to `g` and its two-hop index, on
// every non-empty depth-2 pair set the index covers: each of its |L|²
// counts must equal the size of oracles::EvaluatePathPairs on the
// extended path.
// Returns the number of covered nodes.
size_t ExpectCountAll2MatchesOracle(const Graph& g, FusedExtender& fused) {
  const size_t num_labels = g.num_labels();
  std::vector<PairSet> children(num_labels);
  PairSet level1;
  size_t covered = 0;
  for (LabelId root = 0; root < num_labels; ++root) {
    InitialPairSet(g, root, &level1);
    if (level1.size() == 0) continue;
    fused.ExtendAll(level1, children.data());
    for (LabelId l2 = 0; l2 < num_labels; ++l2) {
      const PairSet& node = children[l2];
      if (node.size() == 0 || !fused.TwoHopCovers(node)) continue;
      ++covered;
      const uint64_t* counts = fused.CountAll2(node);
      for (LabelId a = 0; a < num_labels; ++a) {
        for (LabelId b = 0; b < num_labels; ++b) {
          const LabelPath path{root, l2, a, b};
          auto pairs = oracles::EvaluatePathPairs(g, path);
          PATHEST_CHECK(pairs.ok(), "oracle failed");
          EXPECT_EQ(counts[a * num_labels + b], pairs->size())
              << path.ToIdString();
        }
      }
    }
  }
  return covered;
}

// As above on a fresh extender bound under `kernel`.
size_t ExpectCountAll2MatchesOracle(const Graph& g, PairKernel kernel) {
  const TwoHopIndex index = TwoHopIndex::Build(g, /*k=*/4, kernel);
  FusedExtender fused(g.num_vertices(), g.num_labels());
  fused.Bind(g, kernel, &index);
  SCOPED_TRACE(std::string("kernel=") + PairKernelName(kernel));
  return ExpectCountAll2MatchesOracle(g, fused);
}

TEST(TwoHopTest, IdentityAtEveryPairFieldWidth) {
  // |L| = 1, 3, 5, 6, 7, 9 give label pairs of 0, 4, 5, 6, 6 and 7 bits
  // above keys of 6 to 12 bits.
  // The map must equal ReferenceSelectivities and EvaluatePathPairs on
  // every path of L_k for k = 4..6, every kernel and threads 1/2/4. The
  // forced sparse kernel runs the two-hop pass at every depth k - 2 node,
  // the forced dense one at none.
  for (size_t num_labels : {1u, 3u, 5u, 6u, 7u, 9u}) {
    const Graph g = ErdosRenyiGraph(40, 30 + 20 * num_labels, num_labels,
                                    100 + num_labels);
    for (size_t k : {4u, 5u, 6u}) {
      ASSERT_TRUE(TwoHopIndex::Eligible(g, k, PairKernel::kSparse));
      ASSERT_FALSE(TwoHopIndex::Eligible(g, k, PairKernel::kDense));
      SCOPED_TRACE("labels=" + std::to_string(num_labels) +
                   " k=" + std::to_string(k));
      ExpectFusedMatchesOracles(g, k, /*oracle_stride=*/1);
    }
    EXPECT_GT(ExpectCountAll2MatchesOracle(g, PairKernel::kSparse), 0u)
        << "labels=" << num_labels;
    EXPECT_EQ(ExpectCountAll2MatchesOracle(g, PairKernel::kDense), 0u)
        << "labels=" << num_labels;
  }
}

TEST(TwoHopTest, HubGraphMixesDenseAndSparseGroups) {
  // A sparse background plus one hub that fans out to half the graph
  // under label 0: at a depth-2 node (l1, 0), the sources with an l1-edge
  // into the hub hold groups past the all-labels-dense size and the
  // others stay small. Such mixed nodes keep ExtendAll + CountAll, wholly
  // small nodes take the two-hop pass, and the map must not notice.
  const Graph sparse = ErdosRenyiGraph(240, 900, 3, 71);
  GraphBuilder builder;
  builder.Adopt(sparse.labels(), sparse.CollectEdges(),
                sparse.num_vertices());
  for (VertexId u = 1; u <= 120; ++u) builder.AddEdge(0, LabelId{0}, u);
  auto built = builder.Build();
  ASSERT_TRUE(built.ok());
  const Graph& g = *built;
  ASSERT_EQ(g.num_labels(), 3u);

  const TwoHopIndex index = TwoHopIndex::Build(g, 4, PairKernel::kAuto);
  ASSERT_TRUE(index.enabled());
  FusedExtender fused(g.num_vertices(), g.num_labels());
  fused.Bind(g, PairKernel::kAuto, &index);
  std::vector<PairSet> children(g.num_labels());
  PairSet level1;
  PairSet group;
  size_t mixed = 0;
  for (LabelId root = 0; root < g.num_labels(); ++root) {
    InitialPairSet(g, root, &level1);
    fused.ExtendAll(level1, children.data());
    for (const PairSet& node : children) {
      if (node.size() == 0 || fused.TwoHopCovers(node)) continue;
      // Not covered: does it hold a group the pass would cover too?
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
  EXPECT_GT(ExpectCountAll2MatchesOracle(g, PairKernel::kAuto), 0u);
  for (size_t k : {4u, 5u}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    ExpectFusedMatchesOracles(g, k, /*oracle_stride=*/7);
  }
}

TEST(TwoHopTest, OverBudgetGraphsFallBack) {
  // Key space: with 6 labels, |V| = budget / 36 is the largest graph with
  // an index and one more vertex has none, while both keep the 1-hop
  // packed keys (3-bit label field).
  const size_t largest = kPackedKeyMaxEntries / 36;
  for (size_t num_vertices : {largest, largest + 1}) {
    const Graph g = ErdosRenyiGraph(num_vertices, 30000, 6, 13);
    ASSERT_TRUE(g.has_packed_edges());
    EXPECT_EQ(TwoHopIndex::Build(g, 4, PairKernel::kAuto).enabled(),
              num_vertices == largest);
    ExpectFusedMatchesOracles(g, /*k=*/4, /*oracle_stride=*/37,
                              {PairKernel::kAuto, PairKernel::kSparse});
  }
  // Size bound: a small dense one-label graph whose two-hop walks
  // Σ_{t→x} outdeg(x) (~300 · 150 · 150) exceed the budget although its
  // key space is tiny.
  const Graph dense = ErdosRenyiGraph(300, 45000, 1, 19);
  EXPECT_FALSE(TwoHopIndex::Eligible(dense, 4, PairKernel::kAuto));
  EXPECT_FALSE(TwoHopIndex::Build(dense, 4, PairKernel::kSparse).enabled());
  ExpectFusedMatchesOracles(dense, /*k=*/4, /*oracle_stride=*/1);
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
    const SelectivityMap full = Reference(g, k);
    uint64_t shallow_max = 0;
    uint64_t deep_max = 0;
    full.space().ForEach([&](const LabelPath& path) {
      if (path.length() <= k - 2) {
        shallow_max = std::max(shallow_max, full.Get(path));
      } else if (path.length() == k - 1) {
        deep_max = std::max(deep_max, full.Get(path));
      }
    });
    ASSERT_GT(deep_max, shallow_max) << "k=" << k;
    for (uint64_t guard : {shallow_max, (shallow_max + deep_max) / 2}) {
      LabelPath scratch;
      const std::optional<LabelPath> first =
          FirstGuardViolation(full, k - 1, guard, &scratch);
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
        for (size_t threads : {1u, 2u, 4u}) {
          options.kernel = kernel;
          options.num_threads = threads;
          auto result = ComputeSelectivities(g, k, options);
          ASSERT_FALSE(result.ok());
          EXPECT_EQ(result.status().ToString(),
                    reference.status().ToString())
              << "k=" << k << " guard=" << guard
              << " kernel=" << PairKernelName(kernel)
              << " threads=" << threads;
        }
      }
    }
  }
}

TEST(TwoHopTest, EpochWraparoundInsideTheTwoHopPass) {
  // The two-hop pass draws its scopes from the same u32 counter as the
  // 1-hop loop, over the wider array: starting a few scopes short of the
  // wrap puts the clear inside a build's first CountAll2 calls (or, from
  // further back, between them), with marks of the last pre-wrap epochs
  // still in the two-hop part of the array.
  const Graph g = ErdosRenyiGraph(120, 700, 5, 57);
  for (uint32_t headroom : {1u, 2u, 40u, 300u}) {
    InitialEpochGuard guard(UINT32_MAX - headroom);
    SCOPED_TRACE("headroom=" + std::to_string(headroom));
    EXPECT_GT(ExpectCountAll2MatchesOracle(g, PairKernel::kSparse), 0u);
    for (size_t k : {4u, 5u}) {
      ExpectFusedMatchesOracles(g, k, /*oracle_stride=*/1,
                                {PairKernel::kAuto, PairKernel::kSparse});
    }
  }
}

TEST(TwoHopTest, WraparoundClearsLowMarksOfBothPasses) {
  // A fresh extender counts Y, one group holding every vertex: its one
  // scope (epoch 1) marks every key of the 1-hop pass (CountAll) or of the
  // two-hop pass (CountAll2). Restarted h scopes short of the wrap, it
  // counts a node X: X's group h + 1 runs right after the wrap with epoch
  // 1 again, so unless the clear reached that part of the array, its keys
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
    ASSERT_TRUE(fused.TwoHopCovers(x));
    fused.CountAll(x, counts.data());
    const uint64_t* got = fused.CountAll2(x);
    pair_counts.assign(got, got + num_labels * num_labels);
  }
  ASSERT_GT(x.srcs.size(), 10u);
  for (uint32_t headroom : {1u, 4u}) {
    SCOPED_TRACE("headroom=" + std::to_string(headroom));
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

}  // namespace
}  // namespace pathest
