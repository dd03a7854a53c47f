// The bit-identity oracle of the incremental rebuild
// (maint/incremental.h): for random graphs, random delta batches, and
// every (k, kernel, thread count) combination, patching an old selectivity
// map with IncrementalSelectivities must equal a full ComputeSelectivities
// on the patched graph EXACTLY — the maps hold exact uint64 counts, so
// equality is ==, not approximate — and both must equal the serial oracle
// (oracles::ReferenceSelectivities) on the patched graph. The delta batches
// deliberately cover the awkward shapes: no-op adds of present edges,
// no-op removes of absent edges, edges landing on brand-new vertices,
// removals that empty a label's edge list entirely, and add-then-remove
// pairs inside one batch (last-op-wins).

#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "maint/incremental.h"
#include "oracles/selectivity_oracle.h"
#include "path/selectivity.h"
#include "test_util.h"

namespace pathest {
namespace maint {
namespace {

struct EdgeTriple {
  uint32_t src, dst, label;
  bool operator<(const EdgeTriple& o) const {
    return std::tie(src, dst, label) < std::tie(o.src, o.dst, o.label);
  }
};

// A random multi-label graph with reverse CSRs (the incremental engine's
// backward cones need them).
Graph RandomGraph(uint32_t seed, size_t num_vertices, size_t num_labels,
                  size_t num_edges, std::vector<EdgeTriple>* edges_out) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<uint32_t> vertex(
      0, static_cast<uint32_t>(num_vertices - 1));
  std::uniform_int_distribution<uint32_t> label(
      0, static_cast<uint32_t>(num_labels - 1));
  GraphBuilder builder;
  for (size_t l = 0; l < num_labels; ++l) {
    builder.AddLabel(std::string(1, static_cast<char>('a' + l)));
  }
  for (size_t e = 0; e < num_edges; ++e) {
    EdgeTriple t{vertex(rng), vertex(rng), label(rng)};
    builder.AddEdge(t.src, t.label, t.dst);
    if (edges_out) edges_out->push_back(t);
  }
  auto graph = builder.Build(/*with_reverse=*/true);
  PATHEST_CHECK(graph.ok(), "random graph build failed");
  return std::move(graph).ValueOrDie();
}

// A random delta batch exercising every shape: genuine adds, adds of
// edges already present (no-op), removes of present edges, removes of
// absent edges (no-op), and adds onto vertices past the current range.
std::vector<EdgeDelta> RandomDeltas(uint32_t seed, size_t count,
                                    const std::vector<EdgeTriple>& edges,
                                    size_t num_vertices, size_t num_labels,
                                    bool with_new_vertices) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<uint32_t> vertex(
      0, static_cast<uint32_t>(num_vertices - 1));
  std::uniform_int_distribution<uint32_t> label(
      0, static_cast<uint32_t>(num_labels - 1));
  std::uniform_int_distribution<size_t> pick(0, edges.size() - 1);
  std::uniform_int_distribution<int> shape(0, with_new_vertices ? 4 : 3);
  std::vector<EdgeDelta> deltas;
  for (size_t i = 0; i < count; ++i) {
    switch (shape(rng)) {
      case 0:  // fresh add (may or may not collide — both are legal)
        deltas.push_back({true, vertex(rng), vertex(rng), label(rng)});
        break;
      case 1: {  // no-op add of a present edge
        const EdgeTriple& t = edges[pick(rng)];
        deltas.push_back({true, t.src, t.dst, t.label});
        break;
      }
      case 2: {  // remove a present edge
        const EdgeTriple& t = edges[pick(rng)];
        deltas.push_back({false, t.src, t.dst, t.label});
        break;
      }
      case 3:  // no-op remove (absent with overwhelming probability)
        deltas.push_back({false, vertex(rng), vertex(rng), label(rng)});
        break;
      default:  // add landing on brand-new vertices
        deltas.push_back({true,
                          static_cast<uint32_t>(num_vertices + i),
                          static_cast<uint32_t>(num_vertices + i + 1),
                          label(rng)});
        break;
    }
  }
  return deltas;
}

std::string GraphText(const Graph& graph) {
  std::ostringstream out;
  PATHEST_CHECK(WriteGraphText(graph, &out).ok(), "write failed");
  return out.str();
}

// The oracle assertion: incremental(old_map, deltas) == full(patched) ==
// ReferenceSelectivities(patched), bit for bit, across kernels × thread
// counts.
void ExpectBitIdentity(const Graph& graph, const std::vector<EdgeDelta>& deltas,
                       size_t k, const std::string& what) {
  SelectivityOptions base;
  auto old_map = ComputeSelectivities(graph, k, base);
  ASSERT_TRUE(old_map.ok()) << what << ": " << old_map.status().ToString();
  auto patched = PatchGraph(graph, deltas);
  ASSERT_TRUE(patched.ok()) << what << ": " << patched.status().ToString();
  auto reference = oracles::ReferenceSelectivities(*patched, k);
  ASSERT_TRUE(reference.ok()) << what;

  for (PairKernel kernel :
       {PairKernel::kAuto, PairKernel::kSparse, PairKernel::kDense}) {
    for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      SelectivityOptions options;
      options.kernel = kernel;
      options.num_threads = threads;
      auto full = ComputeSelectivities(*patched, k, options);
      ASSERT_TRUE(full.ok()) << what;
      IncrementalStats stats;
      auto inc = IncrementalSelectivities(*patched, *old_map, deltas, options,
                                          &stats);
      ASSERT_TRUE(inc.ok()) << what << ": " << inc.status().ToString();
      ASSERT_EQ(inc->values(), full->values())
          << what << " k=" << k << " kernel=" << static_cast<int>(kernel)
          << " threads=" << threads;
      ASSERT_EQ(inc->values(), reference->values())
          << what << " k=" << k << " kernel=" << static_cast<int>(kernel)
          << " threads=" << threads << " (oracle)";
      EXPECT_LE(stats.touched_roots, stats.total_roots) << what;
    }
  }
}

TEST(EdgeDeltasFromRecordsTest, ExtractsEdgesSkipsBarriersAndMarkers) {
  std::vector<DeltaRecord> records = {
      DeltaRecord::Compaction(1), DeltaRecord::AddEdge(1, 2, 0),
      DeltaRecord::Barrier(2), DeltaRecord::RemoveEdge(3, 4, 1),
      DeltaRecord::AddEdge(5, 6, 2)};
  auto deltas = EdgeDeltasFromRecords(records);
  ASSERT_EQ(deltas.size(), 3u);
  EXPECT_EQ(deltas[0], (EdgeDelta{true, 1, 2, 0}));
  EXPECT_EQ(deltas[1], (EdgeDelta{false, 3, 4, 1}));
  EXPECT_EQ(deltas[2], (EdgeDelta{true, 5, 6, 2}));
}

TEST(PatchGraphTest, SetSemanticsAndIdempotentReplay) {
  Graph graph = testing_util::SmallGraph();
  const LabelId a = *graph.labels().Find("a");
  const LabelId b = *graph.labels().Find("b");
  std::vector<EdgeDelta> deltas = {
      {true, 0, 1, a},   // no-op: already present
      {false, 3, 0, 2},  // remove the only "c" edge (label emptied)
      {true, 10, 11, b},  // new vertices grow the range
      {false, 9, 9, b},  // no-op: absent
  };
  auto once = PatchGraph(graph, deltas);
  ASSERT_TRUE(once.ok()) << once.status().ToString();
  EXPECT_GE(once->num_vertices(), 12u);
  EXPECT_EQ(once->LabelCardinality(2), 0u);  // "c" emptied
  EXPECT_EQ(once->num_labels(), graph.num_labels());

  // Replaying the same batch over the patched graph is a no-op: the
  // journal's recovery story depends on this.
  auto twice = PatchGraph(*once, deltas);
  ASSERT_TRUE(twice.ok());
  EXPECT_EQ(GraphText(*twice), GraphText(*once));

  // Last-op-wins within one batch.
  std::vector<EdgeDelta> flip = {{true, 20, 21, a}, {false, 20, 21, a}};
  auto flipped = PatchGraph(graph, flip);
  ASSERT_TRUE(flipped.ok());
  std::vector<EdgeDelta> back = {{false, 20, 21, a}, {true, 20, 21, a}};
  auto added = PatchGraph(graph, back);
  ASSERT_TRUE(added.ok());
  EXPECT_NE(GraphText(*flipped), GraphText(*added));

  // A label id outside the dictionary is a typed error, not a new label.
  std::vector<EdgeDelta> bad = {{true, 0, 1, 99}};
  EXPECT_EQ(PatchGraph(graph, bad).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(IncrementalTest, SmallGraphAllKsAllShapes) {
  Graph graph = testing_util::SmallGraph();
  const LabelId a = *graph.labels().Find("a");
  const LabelId c = *graph.labels().Find("c");
  std::vector<EdgeDelta> deltas = {
      {true, 2, 1, a},    // genuine add
      {false, 3, 0, c},   // empty label "c"
      {true, 0, 1, a},    // no-op add
      {true, 4, 5, c},    // resurrect "c" on new vertices
  };
  for (size_t k : {size_t{2}, size_t{3}, size_t{4}}) {
    ExpectBitIdentity(graph, deltas, k, "small graph");
  }
}

TEST(IncrementalTest, StatsOnSmallGraphAreHandComputed) {
  // SmallGraph (a = 0, b = 1, c = 2):
  //   0 -a-> 1, 0 -a-> 2, 1 -b-> 3, 2 -b-> 3, 3 -c-> 0, 1 -a-> 3
  // plus one added edge 2 -c-> 0, so D = {c} and U = {2}. Backward cones
  // over the union graph: C_0 = {2}, C_1 = {0, 2}, C_2 = {0, 2, 3}.
  //   k = 2: C_0; a is touched (target 2 ∈ C_0), c is in D, b's only
  //          target 3 is not in C_0. No tasks below k = 3.
  //   k = 3: C_1; touched a, c as before. Root c (in D) has every cell
  //          dirty but only (c, a) = {(2,1), (2,2), (3,1), (3,2)} is
  //          non-empty. Root a: test (a) dirties (a, c) (target 2 is a
  //          c-delta source); (a, a) and (a, b) have the single target 3,
  //          not in C_0. 2 tasks.
  //   k = 4: C_2 also holds 3, so b is touched too, and its cell (b, c) =
  //          {(1,0), (2,0)} reaches 0 ∈ C_1 by test (b); (b, a) and (b, b)
  //          are empty. Root a's (a, a), (a, b) stay clean (3 ∉ C_1). With
  //          (c, a) and (a, c): 3 tasks.
  Graph graph = testing_util::SmallGraph();
  const LabelId c = *graph.labels().Find("c");
  const std::vector<EdgeDelta> deltas = {{true, 2, 0, c}};
  auto patched = PatchGraph(graph, deltas);
  ASSERT_TRUE(patched.ok());
  struct Expected {
    size_t k, touched_roots, dirty_tasks, total_tasks, cone_vertices;
  };
  for (const Expected& want : {Expected{2, 2, 0, 0, 1},
                               Expected{3, 2, 2, 9, 2},
                               Expected{4, 3, 3, 9, 3}}) {
    auto old_map = ComputeSelectivities(graph, want.k);
    ASSERT_TRUE(old_map.ok());
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SelectivityOptions options;
      options.num_threads = threads;
      IncrementalStats stats;
      auto inc = IncrementalSelectivities(*patched, *old_map, deltas,
                                          options, &stats);
      ASSERT_TRUE(inc.ok()) << inc.status().ToString();
      auto full = ComputeSelectivities(*patched, want.k, options);
      ASSERT_TRUE(full.ok());
      EXPECT_EQ(inc->values(), full->values()) << "k=" << want.k;
      EXPECT_EQ(stats.num_deltas, 1u);
      EXPECT_EQ(stats.total_roots, 3u);
      EXPECT_EQ(stats.touched_roots, want.touched_roots) << "k=" << want.k;
      EXPECT_EQ(stats.dirty_tasks, want.dirty_tasks) << "k=" << want.k;
      EXPECT_EQ(stats.total_tasks, want.total_tasks) << "k=" << want.k;
      EXPECT_EQ(stats.cone_vertices, want.cone_vertices) << "k=" << want.k;
    }
  }
}

TEST(IncrementalTest, DeltaOnEveryLabelIsTheFullBuild) {
  // A self-loop of every label on vertex 0 puts D = every label, so every
  // root is touched and every cell dirty; it also puts the pair (0, 0) in
  // every level-2 cell, so every dirty cell is a task. The refresh then
  // runs exactly the work of a full build, over the old map, and must
  // give the full build's map.
  Graph graph = testing_util::SmallGraph();
  std::vector<EdgeDelta> deltas;
  for (LabelId l = 0; l < graph.num_labels(); ++l) {
    deltas.push_back({true, 0, 0, l});
  }
  auto patched = PatchGraph(graph, deltas);
  ASSERT_TRUE(patched.ok());
  for (size_t k : {size_t{2}, size_t{3}, size_t{4}}) {
    auto old_map = ComputeSelectivities(graph, k);
    ASSERT_TRUE(old_map.ok());
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SelectivityOptions options;
      options.num_threads = threads;
      IncrementalStats stats;
      auto inc = IncrementalSelectivities(*patched, *old_map, deltas,
                                          options, &stats);
      ASSERT_TRUE(inc.ok()) << inc.status().ToString();
      auto full = ComputeSelectivities(*patched, k, options);
      ASSERT_TRUE(full.ok());
      EXPECT_EQ(inc->values(), full->values()) << "k=" << k;
      EXPECT_EQ(stats.touched_roots, stats.total_roots) << "k=" << k;
      EXPECT_EQ(stats.dirty_tasks, stats.total_tasks) << "k=" << k;
      EXPECT_EQ(stats.total_tasks, k >= 3 ? 9u : 0u) << "k=" << k;
    }
  }
}

TEST(IncrementalTest, EmptyBatchIsExactNoOp) {
  Graph graph = testing_util::SmallGraph();
  auto old_map = ComputeSelectivities(graph, 3);
  ASSERT_TRUE(old_map.ok());
  auto inc = IncrementalSelectivities(graph, *old_map, {}, {});
  ASSERT_TRUE(inc.ok());
  EXPECT_EQ(inc->values(), old_map->values());
}

TEST(IncrementalTest, RandomGraphGridIsBitIdentical) {
  // The main oracle grid. Modest sizes keep the 18-combination inner loop
  // affordable; the seeds vary topology, delta mix, and batch size.
  struct Case {
    uint32_t seed;
    size_t vertices, labels, edges, deltas;
    bool new_vertices;
  };
  const std::vector<Case> cases = {
      {11, 24, 3, 60, 8, false},
      {22, 40, 4, 120, 16, true},
      {33, 16, 2, 50, 6, true},
      {44, 60, 5, 150, 24, false},
  };
  for (const Case& c : cases) {
    std::vector<EdgeTriple> edges;
    Graph graph = RandomGraph(c.seed, c.vertices, c.labels, c.edges, &edges);
    std::vector<EdgeDelta> deltas =
        RandomDeltas(c.seed * 7 + 1, c.deltas, edges, c.vertices, c.labels,
                     c.new_vertices);
    for (size_t k : {size_t{2}, size_t{3}}) {
      ExpectBitIdentity(graph, deltas, k,
                        "seed=" + std::to_string(c.seed));
    }
  }
  // One deeper case: k=4 over a small graph.
  std::vector<EdgeTriple> edges;
  Graph graph = RandomGraph(55, 14, 3, 40, &edges);
  std::vector<EdgeDelta> deltas =
      RandomDeltas(56, 10, edges, 14, 3, /*with_new_vertices=*/true);
  ExpectBitIdentity(graph, deltas, 4, "deep seed=55");
}

TEST(IncrementalTest, RemoveEveryEdgeOfALabel) {
  // The hardest emptying shape: the batch removes EVERY edge of one label,
  // so its whole root subtree must collapse to zero — and every other
  // root's paths THROUGH that label must vanish too.
  std::vector<EdgeTriple> edges;
  Graph graph = RandomGraph(77, 20, 3, 70, &edges);
  std::vector<EdgeDelta> deltas;
  for (const EdgeTriple& t : edges) {
    if (t.label == 1) deltas.push_back({false, t.src, t.dst, t.label});
  }
  ASSERT_FALSE(deltas.empty());
  for (size_t k : {size_t{2}, size_t{3}}) {
    ExpectBitIdentity(graph, deltas, k, "label emptied");
  }
}

TEST(IncrementalTest, EmptyALabelOfADenseGraph) {
  // As above on a graph dense enough (~10 level-1 members per label) that
  // the fused kernel's groups leave its flat loop for the bitmap paths,
  // which then drain the emptied label too.
  std::vector<EdgeTriple> edges;
  Graph graph = RandomGraph(78, 200, 3, 6000, &edges);
  std::vector<EdgeDelta> deltas;
  for (const EdgeTriple& t : edges) {
    if (t.label == 1) deltas.push_back({false, t.src, t.dst, t.label});
  }
  ASSERT_FALSE(deltas.empty());
  ExpectBitIdentity(graph, deltas, 3, "dense label emptied");
}

TEST(IncrementalTest, TwoHopIndexFollowsEveryRefresh) {
  // The two-hop leaf pass counts depth k from an index of the graph's
  // two-hop walks t -a-> x -b-> u. Each batch below adds or removes one
  // edge at the far end of a labeled chain 30 -> 31 -> ... -> 36 hung off
  // a random graph, so the walks it changes start at least three hops
  // below the chain's first vertex, and only the last two levels of the
  // prefix tasks that reach them see it. Batches are applied in
  // succession, each refresh patching the previous one's map, and after
  // every step the incremental map must equal a full rebuild. An index
  // left over from an earlier graph (or built before the patch) misses
  // the change at depth k.
  for (size_t k : {size_t{4}, size_t{5}}) {
    std::vector<EdgeTriple> edges;
    Graph graph = RandomGraph(90 + static_cast<uint32_t>(k), 30, 3, 40,
                              &edges);
    // Chain 30 -a-> 31 -b-> 32 -c-> ... -> 36.
    std::vector<EdgeDelta> chain;
    for (uint32_t v = 30; v < 36; ++v) {
      chain.push_back({true, v, v + 1, (v - 30) % 3});
    }
    auto chained = PatchGraph(graph, chain);
    ASSERT_TRUE(chained.ok());
    graph = std::move(*chained);
    const std::vector<std::vector<EdgeDelta>> batches = {
        {{true, 35, 37, 2}},   // new walk 34 -> 35 -> 37
        {{true, 36, 38, 0}},   // new walk 35 -> 36 -> 38
        {{false, 35, 37, 2}},  // removes the first walk again
        {{true, 36, 5, 1}},    // back into the random part
        {{false, 36, 38, 0}},
    };
    for (PairKernel kernel : {PairKernel::kAuto, PairKernel::kSparse}) {
      for (size_t threads : {size_t{1}, size_t{2}}) {
        SelectivityOptions options;
        options.kernel = kernel;
        options.num_threads = threads;
        auto map = ComputeSelectivities(graph, k, options);
        ASSERT_TRUE(map.ok());
        Graph current = graph;
        for (size_t step = 0; step < batches.size(); ++step) {
          const std::string what = "k=" + std::to_string(k) +
                                   " kernel=" + PairKernelName(kernel) +
                                   " threads=" + std::to_string(threads) +
                                   " step=" + std::to_string(step);
          auto patched = PatchGraph(current, batches[step]);
          ASSERT_TRUE(patched.ok()) << what;
          auto full = ComputeSelectivities(*patched, k, options);
          ASSERT_TRUE(full.ok()) << what;
          auto inc = IncrementalSelectivities(*patched, *map, batches[step],
                                              options);
          ASSERT_TRUE(inc.ok()) << what << ": " << inc.status().ToString();
          ASSERT_EQ(inc->values(), full->values()) << what;
          // The step changed some length-k count: the pass had work.
          const PathSpace& space = full->space();
          bool leaf_changed = false;
          for (uint64_t i = space.LengthOffset(k); i < space.size(); ++i) {
            leaf_changed |= full->GetByCanonicalIndex(i) !=
                            map->GetByCanonicalIndex(i);
          }
          EXPECT_TRUE(leaf_changed) << what;
          map = std::move(inc);
          current = std::move(*patched);
        }
      }
    }
  }
}

TEST(IncrementalTest, GuardViolationMatchesFullBuildError) {
  // A pair guard the BASE graph satisfies but the patched graph trips:
  // the incremental rebuild (same guard as the original build, per its
  // contract) must surface the same deterministic error class a full
  // build reports — never a silently partial map.
  GraphBuilder builder;
  builder.AddEdge(0, "a", 1);
  builder.AddEdge(1, "b", 2);
  auto built = builder.Build(/*with_reverse=*/true);
  ASSERT_TRUE(built.ok());
  Graph graph = std::move(*built);
  const LabelId b = *graph.labels().Find("b");

  SelectivityOptions guard;
  guard.max_pairs_per_prefix = 3;
  auto old_map = ComputeSelectivities(graph, 3, guard);
  ASSERT_TRUE(old_map.ok()) << old_map.status().ToString();

  // Fan label b out of vertex 1: prefix (a, b) now holds 4 pairs > 3.
  std::vector<EdgeDelta> deltas = {
      {true, 1, 3, b}, {true, 1, 4, b}, {true, 1, 5, b}};
  auto patched = PatchGraph(graph, deltas);
  ASSERT_TRUE(patched.ok());

  auto full = ComputeSelectivities(*patched, 3, guard);
  ASSERT_FALSE(full.ok());
  auto inc = IncrementalSelectivities(*patched, *old_map, deltas, guard);
  ASSERT_FALSE(inc.ok());
  EXPECT_EQ(inc.status().code(), full.status().code());
}

}  // namespace
}  // namespace maint
}  // namespace pathest
