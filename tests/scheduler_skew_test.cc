// Scheduler-skew coverage: a graph where one label owns >90% of the edges
// is the worst case for per-root decomposition — the monster root would
// serialize the build's tail however many workers there are. The engine's
// depth-2 prefix tasks split that root into |L| independently schedulable
// pieces. This test asserts DETERMINISM (maps at threads {1, 2, 4}
// bit-identical to the serial oracle's); the wall times are measured and
// printed but NOT asserted — the CI container may have a single core,
// where no decomposition can show a parallel speedup.

#include <cstdio>
#include <vector>

#include <gtest/gtest.h>

#include "gen/generator.h"
#include "gen/label_assigner.h"
#include "oracles/selectivity_oracle.h"
#include "path/selectivity.h"
#include "util/timer.h"

namespace pathest {
namespace {

// Assigns label 0 with probability `skew`, the rest uniformly.
class SkewedLabelAssigner : public LabelAssigner {
 public:
  SkewedLabelAssigner(size_t num_labels, double skew)
      : num_labels_(num_labels), skew_(skew) {}

  LabelId Assign(VertexId, VertexId, Rng* rng) override {
    if (rng->NextBool(skew_) || num_labels_ == 1) return 0;
    return static_cast<LabelId>(1 + rng->NextBounded(num_labels_ - 1));
  }
  size_t num_labels() const override { return num_labels_; }

 private:
  size_t num_labels_;
  double skew_;
};

Graph SkewedGraph(size_t num_vertices, size_t num_edges, size_t num_labels,
                  double skew, uint64_t seed) {
  SkewedLabelAssigner labels(num_labels, skew);
  ErdosRenyiParams params;
  params.num_vertices = num_vertices;
  params.num_edges = num_edges;
  params.seed = seed;
  auto g = GenerateErdosRenyi(params, &labels);
  PATHEST_CHECK(g.ok(), "skewed graph generation failed");
  return std::move(g).ValueOrDie();
}

TEST(SchedulerSkewTest, SkewedLabelDeterminismAcrossThreads) {
  const Graph g = SkewedGraph(400, 6000, 4, 0.93, 11);
  // The premise: one label really does own >90% of the edges.
  uint64_t total = 0;
  for (LabelId l = 0; l < g.num_labels(); ++l) {
    total += g.LabelCardinality(l);
  }
  ASSERT_GT(g.LabelCardinality(0) * 10, total * 9)
      << "label 0 owns " << g.LabelCardinality(0) << " of " << total;

  const size_t k = 4;
  auto baseline = oracles::ReferenceSelectivities(g, k);
  ASSERT_TRUE(baseline.ok());

  std::printf("prefix-task decomposition:");
  for (size_t threads : {1u, 2u, 4u}) {
    SelectivityOptions options;
    options.num_threads = threads;
    Timer timer;
    auto map = ComputeSelectivities(g, k, options);
    const double ms = timer.ElapsedMillis();
    ASSERT_TRUE(map.ok()) << "threads=" << threads;
    // The determinism assert: bit-identical to the serial oracle's map.
    EXPECT_EQ(map->values(), baseline->values()) << "threads=" << threads;
    // Timing is informational only (a 1-core container cannot show a
    // monotone non-increasing profile): printed for humans and CI logs.
    std::printf("  threads=%zu %.1fms", threads, ms);
  }
  std::printf("\n");
}

TEST(SchedulerSkewTest, PrefixTasksSplitTheMonsterRoot) {
  // With task decomposition the skewed root contributes |L| tasks whose
  // combined weight dwarfs the others — verify the fused build still
  // matches the baseline when the task count far exceeds the threads.
  const Graph g = SkewedGraph(250, 3000, 6, 0.92, 7);
  auto baseline = ComputeSelectivities(g, 3);  // serial (default)
  ASSERT_TRUE(baseline.ok());
  auto expect = oracles::ReferenceSelectivities(g, 3);
  ASSERT_TRUE(expect.ok());
  EXPECT_EQ(baseline->values(), expect->values());
  for (size_t threads : {3u, 4u}) {
    SelectivityOptions options;
    options.num_threads = threads;
    auto map = ComputeSelectivities(g, 3, options);
    ASSERT_TRUE(map.ok());
    EXPECT_EQ(map->values(), expect->values()) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace pathest
