// Hand-computed selectivities and bad input of the exact evaluator. The
// engine's agreement with the serial oracle on generated graphs is the
// seeded differential runner's (selectivity_differential_test.cc).

#include <gtest/gtest.h>

#include "oracles/selectivity_oracle.h"
#include "path/selectivity.h"
#include "test_util.h"

namespace pathest {
namespace {

using testing_util::SmallGraph;

TEST(SelectivityTest, HandComputedPaths) {
  Graph g = SmallGraph();
  LabelId a = *g.labels().Find("a");
  LabelId b = *g.labels().Find("b");
  LabelId c = *g.labels().Find("c");
  auto map = ComputeSelectivities(g, 3);
  ASSERT_TRUE(map.ok());
  // Single labels: their edge counts.
  EXPECT_EQ(map->Get(LabelPath{a}), 3u);
  EXPECT_EQ(map->Get(LabelPath{b}), 2u);
  EXPECT_EQ(map->Get(LabelPath{c}), 1u);
  // a/b: 0-a->1-b->3, 0-a->2-b->3 (same pair (0,3)); 1 has no a to a b-src...
  // pairs: (0,3). Also 1-a->3: 3 has no b. => {(0,3)} singleton.
  EXPECT_EQ(map->Get(LabelPath{a, b}), 1u);
  auto pairs = oracles::EvaluatePathPairs(g, LabelPath{a, b});
  ASSERT_TRUE(pairs.ok());
  EXPECT_EQ(*pairs, std::vector<uint64_t>{(uint64_t{0} << 32) | 3u});
  // b/c: 1-b->3-c->0 and 2-b->3-c->0 -> pairs (1,0), (2,0).
  EXPECT_EQ(map->Get(LabelPath{b, c}), 2u);
  // a/b/c: (0,0) via both branches -> 1 distinct pair.
  EXPECT_EQ(map->Get(LabelPath{a, b, c}), 1u);
  // c/a: 3-c->0-a->{1,2} -> (3,1), (3,2).
  EXPECT_EQ(map->Get(LabelPath{c, a}), 2u);
  // b/b: no b-edge out of 3 -> 0.
  EXPECT_EQ(map->Get(LabelPath{b, b}), 0u);
}

TEST(SelectivityTest, RejectsBadInput) {
  Graph g = SmallGraph();
  EXPECT_FALSE(oracles::EvaluatePathSelectivity(g, LabelPath{}).ok());
  EXPECT_FALSE(oracles::EvaluatePathSelectivity(g, LabelPath{99}).ok());
  EXPECT_FALSE(ComputeSelectivities(g, 0).ok());
  EXPECT_FALSE(ComputeSelectivities(g, kMaxPathLength + 1).ok());
}

}  // namespace
}  // namespace pathest
