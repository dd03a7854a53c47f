// Determinism and failure-semantics tests for the parallel selectivity
// engine: the SelectivityMap must be bit-identical for every num_threads
// value, and the max_pairs_per_prefix guard must report the same status
// under parallelism as it does serially.

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "gen/generator.h"
#include "gen/label_assigner.h"
#include "oracles/selectivity_oracle.h"
#include "path/selectivity.h"
#include "test_util.h"

namespace pathest {
namespace {

Graph ForestFireGraph(size_t num_vertices, size_t num_labels, uint64_t seed) {
  UniformLabelAssigner labels(num_labels);
  ForestFireParams params;
  params.num_vertices = num_vertices;
  params.seed = seed;
  auto g = GenerateForestFire(params, &labels);
  PATHEST_CHECK(g.ok(), "forest fire generation failed");
  return std::move(g).ValueOrDie();
}

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

// Runs ComputeSelectivities at every thread count and asserts the maps are
// bit-identical to the serial baseline.
void ExpectThreadCountInvariance(const Graph& g, size_t k) {
  SelectivityOptions serial;
  serial.num_threads = 1;
  auto baseline = ComputeSelectivities(g, k, serial);
  ASSERT_TRUE(baseline.ok());
  for (size_t threads : {2u, 3u, 4u, 0u}) {  // 0 = hardware concurrency
    SelectivityOptions options;
    options.num_threads = threads;
    auto map = ComputeSelectivities(g, k, options);
    ASSERT_TRUE(map.ok()) << "threads=" << threads;
    EXPECT_EQ(map->values(), baseline->values()) << "threads=" << threads;
  }
}

TEST(ParallelSelectivityTest, DeterministicOnForestFire) {
  ExpectThreadCountInvariance(ForestFireGraph(400, 5, 7), /*k=*/4);
}

TEST(ParallelSelectivityTest, DeterministicOnForestFireSecondSeed) {
  ExpectThreadCountInvariance(ForestFireGraph(250, 4, 99), /*k=*/5);
}

TEST(ParallelSelectivityTest, DeterministicOnErdosRenyi) {
  ExpectThreadCountInvariance(ErdosRenyiGraph(200, 800, 5, 11), /*k=*/4);
}

TEST(ParallelSelectivityTest, DeterministicOnErdosRenyiDense) {
  // Denser graph: larger pair sets stress the scratch reuse.
  ExpectThreadCountInvariance(ErdosRenyiGraph(80, 1200, 3, 5), /*k=*/5);
}

TEST(ParallelSelectivityTest, MaxPairsAbortMatchesSerialStatus) {
  Graph g = ErdosRenyiGraph(200, 800, 5, 11);
  SelectivityOptions serial;
  serial.num_threads = 1;
  serial.max_pairs_per_prefix = 50;  // far below the level-1 pair sets
  auto serial_result = ComputeSelectivities(g, 4, serial);
  ASSERT_FALSE(serial_result.ok());
  ASSERT_EQ(serial_result.status().code(), StatusCode::kResourceExhausted);

  for (size_t threads : {2u, 4u, 0u}) {
    SelectivityOptions options = serial;
    options.num_threads = threads;
    auto result = ComputeSelectivities(g, 4, options);
    ASSERT_FALSE(result.ok()) << "threads=" << threads;
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
    // The lowest-id failing root wins regardless of scheduling, so the
    // message (which names the failing path) is deterministic too.
    EXPECT_EQ(result.status().ToString(), serial_result.status().ToString())
        << "threads=" << threads;
  }
}

TEST(ParallelSelectivityTest, MaxPairsAbortDeepInTreeUnderParallelism) {
  // A guard high enough to pass level 1 but trip deeper in the DFS, so the
  // abort surfaces from inside worker threads rather than the root setup.
  Graph g = ErdosRenyiGraph(80, 1200, 3, 5);
  SelectivityOptions serial;
  serial.num_threads = 1;
  uint64_t level1_max = 0;
  for (LabelId l = 0; l < g.num_labels(); ++l) {
    auto f = oracles::EvaluatePathSelectivity(g, LabelPath{l});
    ASSERT_TRUE(f.ok());
    level1_max = std::max(level1_max, *f);
  }
  serial.max_pairs_per_prefix = level1_max;  // level 1 passes, level 2 trips
  auto serial_result = ComputeSelectivities(g, 4, serial);
  ASSERT_FALSE(serial_result.ok());

  SelectivityOptions parallel = serial;
  parallel.num_threads = 4;
  auto parallel_result = ComputeSelectivities(g, 4, parallel);
  ASSERT_FALSE(parallel_result.ok());
  EXPECT_EQ(parallel_result.status().ToString(),
            serial_result.status().ToString());
}

TEST(ParallelSelectivityTest, ProgressAndLabelTimeFireOncePerRoot) {
  Graph g = ForestFireGraph(300, 6, 3);
  SelectivityOptions options;
  options.num_threads = 4;
  // The engine serializes both callbacks behind one mutex (documented in
  // selectivity.h), so plain containers need no locking here.
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

TEST(ParallelSelectivityTest, ThreadCountAboveLabelCountIsClamped) {
  Graph g = testing_util::SmallGraph();  // 3 labels
  SelectivityOptions options;
  options.num_threads = 64;  // clamped to |L| internally
  auto map = ComputeSelectivities(g, 3, options);
  ASSERT_TRUE(map.ok());
  auto baseline = ComputeSelectivities(g, 3);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(map->values(), baseline->values());
}

}  // namespace
}  // namespace pathest
