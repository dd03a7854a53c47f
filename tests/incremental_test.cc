// Named cases of the incremental rebuild (maint/incremental.h): journal
// record extraction, PatchGraph's set semantics and bad input, and the
// hand-computed IncrementalStats of one small batch. Bit-identity of the
// refresh with a full build and with the serial oracle, over random graphs,
// batches (no-op adds and removes, new vertices, an emptied label, the
// empty batch), kernels, threads, planes and guards, is the seeded
// differential runner's (selectivity_differential_test.cc).

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph.h"
#include "graph/graph_io.h"
#include "maint/incremental.h"
#include "path/selectivity.h"
#include "test_util.h"

namespace pathest {
namespace maint {
namespace {

std::string GraphText(const Graph& graph) {
  std::ostringstream out;
  PATHEST_CHECK(WriteGraphText(graph, &out).ok(), "write failed");
  return out.str();
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

}  // namespace
}  // namespace maint
}  // namespace pathest
