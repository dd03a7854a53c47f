// Closed-form selectivity laws on structured graphs. Unlike the
// brute-force cross-checks in selectivity_test.cc, these pin the evaluator
// against EXACT combinatorial formulas derived by hand, so a systematic
// bias in both implementations cannot hide.

#include <gtest/gtest.h>

#include "graph/graph_builder.h"
#include "histogram/builders.h"
#include "path/selectivity.h"

namespace pathest {
namespace {

Graph Build(GraphBuilder* builder) {
  auto g = builder->Build();
  PATHEST_CHECK(g.ok(), "build failed");
  return std::move(*g);
}

// Directed n-cycle, single label: every vertex reaches exactly one vertex
// in j hops, so f(a^j) = n for every j >= 1.
TEST(StructuredGraphTest, CycleHasConstantSelectivity) {
  for (size_t n : {3u, 5u, 12u}) {
    GraphBuilder builder;
    for (VertexId v = 0; v < n; ++v) {
      builder.AddEdge(v, "a", static_cast<VertexId>((v + 1) % n));
    }
    Graph g = Build(&builder);
    auto map = ComputeSelectivities(g, 6);
    ASSERT_TRUE(map.ok());
    LabelPath path;
    for (size_t j = 1; j <= 6; ++j) {
      path.PushBack(0);
      EXPECT_EQ(map->Get(path), n) << "n=" << n << " j=" << j;
    }
  }
}

// Directed chain 0 -> 1 -> ... -> n-1, single label: f(a^j) = n - j
// (0 when j >= n).
TEST(StructuredGraphTest, ChainShrinksLinearly) {
  const size_t n = 9;
  GraphBuilder builder;
  for (VertexId v = 0; v + 1 < n; ++v) builder.AddEdge(v, "a", v + 1);
  Graph g = Build(&builder);
  auto map = ComputeSelectivities(g, 12);
  ASSERT_TRUE(map.ok());
  LabelPath path;
  for (size_t j = 1; j <= 12; ++j) {
    path.PushBack(0);
    EXPECT_EQ(map->Get(path), j < n ? n - j : 0) << "j=" << j;
  }
}

// Star with L leaves: center -a-> leaf_i, leaf_i -b-> center.
//   f(a) = L, f(b) = L,
//   f(a/b) = 1  (center back to center, one distinct pair),
//   f(b/a) = L^2 (every leaf to every leaf),
//   f(a/a) = f(b/b) = 0.
TEST(StructuredGraphTest, StarHasQuadraticBounce) {
  const uint64_t leaves = 7;
  GraphBuilder builder;
  for (VertexId i = 1; i <= leaves; ++i) {
    builder.AddEdge(0, "a", i);
    builder.AddEdge(i, "b", 0);
  }
  Graph g = Build(&builder);
  auto map = ComputeSelectivities(g, 4);
  ASSERT_TRUE(map.ok());
  LabelId a = *g.labels().Find("a");
  LabelId b = *g.labels().Find("b");
  EXPECT_EQ(map->Get(LabelPath{a}), leaves);
  EXPECT_EQ(map->Get(LabelPath{b}), leaves);
  EXPECT_EQ(map->Get((LabelPath{a, b})), 1u);
  EXPECT_EQ(map->Get((LabelPath{b, a})), leaves * leaves);
  EXPECT_EQ(map->Get((LabelPath{a, a})), 0u);
  EXPECT_EQ(map->Get((LabelPath{b, b})), 0u);
  // Longer bounces: a/b/a ends on every leaf from the center (L distinct
  // pairs); b/a/b ends on the center from every leaf (also L).
  EXPECT_EQ(map->Get((LabelPath{a, b, a})), leaves);
  EXPECT_EQ(map->Get((LabelPath{b, a, b})), leaves);
}

// Complete digraph (no self loops), single label, n >= 3:
//   f(a) = n(n-1); f(a^j) = n^2 for j >= 2 (two hops reach everything,
//   including returning to the start through a third vertex).
TEST(StructuredGraphTest, CompleteDigraphSaturates) {
  const uint64_t n = 6;
  GraphBuilder builder;
  for (VertexId i = 0; i < n; ++i) {
    for (VertexId j = 0; j < n; ++j) {
      if (i != j) builder.AddEdge(i, "a", j);
    }
  }
  Graph g = Build(&builder);
  auto map = ComputeSelectivities(g, 4);
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(map->Get(LabelPath{0}), n * (n - 1));
  LabelPath path{0};
  for (size_t j = 2; j <= 4; ++j) {
    path.PushBack(0);
    EXPECT_EQ(map->Get(path), n * n) << "j=" << j;
  }
}

// Two disjoint components never mix: selectivities are additive across a
// disjoint union of graphs.
TEST(StructuredGraphTest, DisjointUnionIsAdditive) {
  // Component A: 4-cycle labeled a. Component B: 3-chain labeled a.
  GraphBuilder builder;
  for (VertexId v = 0; v < 4; ++v) {
    builder.AddEdge(v, "a", static_cast<VertexId>((v + 1) % 4));
  }
  builder.AddEdge(10, "a", 11);
  builder.AddEdge(11, "a", 12);
  Graph g = Build(&builder);
  auto map = ComputeSelectivities(g, 3);
  ASSERT_TRUE(map.ok());
  // f(a)   = 4 (cycle) + 2 (chain)
  // f(a^2) = 4 + 1
  // f(a^3) = 4 + 0
  EXPECT_EQ(map->Get(LabelPath{0}), 6u);
  EXPECT_EQ(map->Get((LabelPath{0, 0})), 5u);
  EXPECT_EQ(map->Get((LabelPath{0, 0, 0})), 4u);
}

// A lattice where multiple routes connect the same pair must count the
// pair once: diamond 0 -> {1,2} -> 3 (all label a).
TEST(StructuredGraphTest, DistinctPairsNotPathCount) {
  GraphBuilder builder;
  builder.AddEdge(0, "a", 1);
  builder.AddEdge(0, "a", 2);
  builder.AddEdge(1, "a", 3);
  builder.AddEdge(2, "a", 3);
  Graph g = Build(&builder);
  auto map = ComputeSelectivities(g, 2);
  ASSERT_TRUE(map.ok());
  // Two concrete paths 0->1->3 and 0->2->3, but one distinct pair (0,3).
  EXPECT_EQ(map->Get((LabelPath{0, 0})), 1u);
}

// Histogram over a constant distribution is exact with ONE bucket — ties
// the evaluator to the estimator on a case with a provable answer.
TEST(StructuredGraphTest, CycleDistributionNeedsOneBucket) {
  GraphBuilder builder;
  for (VertexId v = 0; v < 8; ++v) {
    builder.AddEdge(v, "a", static_cast<VertexId>((v + 1) % 8));
  }
  Graph g = Build(&builder);
  auto map = ComputeSelectivities(g, 5);
  ASSERT_TRUE(map.ok());
  // All five paths a, a/a, ..., a^5 have f = 8: one bucket, zero SSE.
  auto h = BuildVOptimalGreedy(map->values(), 1);
  ASSERT_TRUE(h.ok());
  EXPECT_DOUBLE_EQ(TotalSse(*h, map->values()), 0.0);
  EXPECT_DOUBLE_EQ(h->EstimatePoint(0), 8.0);
}

}  // namespace
}  // namespace pathest
