// Tests for the shared-stats multi-β histogram sweep engine: bit-identity
// of BuildHistogramSweep against independent per-β builds for EVERY
// histogram type on Erdős–Rényi and forest-fire path distributions, the
// single-merge-run guarantee of BuildVOptimalGreedySweep, and determinism
// of the batched MeasureAccuracySweep grid across thread counts.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/distribution.h"
#include "core/error.h"
#include "core/experiment.h"
#include "core/path_histogram.h"
#include "gen/generator.h"
#include "gen/label_assigner.h"
#include "histogram/builders.h"
#include "histogram/stats.h"
#include "ordering/factory.h"
#include "path/selectivity.h"
#include "util/random.h"

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

// The ordered path-frequency distribution of `graph` at depth k under the
// sum-based ordering — the sequence the real pipeline buckets.
std::vector<uint64_t> PathDistribution(const Graph& graph, size_t k) {
  auto map = ComputeSelectivities(graph, k);
  PATHEST_CHECK(map.ok(), "selectivity computation failed");
  auto ordering = MakeOrdering("sum-based", graph, k);
  PATHEST_CHECK(ordering.ok(), "ordering failed");
  auto dist = BuildDistribution(*map, **ordering);
  PATHEST_CHECK(dist.ok(), "distribution failed");
  return std::move(*dist);
}

void ExpectBitIdentical(const Histogram& a, const Histogram& b,
                        const char* what, size_t beta) {
  ASSERT_EQ(a.num_buckets(), b.num_buckets()) << what << " beta=" << beta;
  for (size_t i = 0; i < a.num_buckets(); ++i) {
    EXPECT_EQ(a.begins()[i], b.begins()[i])
        << what << " beta=" << beta << " bucket " << i;
    EXPECT_EQ(a.BucketEnd(i), b.BucketEnd(i))
        << what << " beta=" << beta << " bucket " << i;
    // Exact double equality: identical boundaries must yield identical
    // accumulated sums, bit for bit.
    EXPECT_EQ(a.sums()[i], b.sums()[i])
        << what << " beta=" << beta << " bucket " << i;
    EXPECT_EQ(a.sumsqs()[i], b.sumsqs()[i])
        << what << " beta=" << beta << " bucket " << i;
  }
}

constexpr HistogramType kAllTypes[] = {
    HistogramType::kEquiWidth,     HistogramType::kEquiDepth,
    HistogramType::kVOptimal,      HistogramType::kVOptimalExact,
    HistogramType::kMaxDiff,       HistogramType::kEndBiased};

TEST(HistogramSweepTest, SweepMatchesPerBetaOnGraphDistributions) {
  const std::vector<std::vector<uint64_t>> distributions = {
      PathDistribution(ErdosRenyiGraph(150, 700, 4, 11), /*k=*/3),
      PathDistribution(ForestFireGraph(250, 4, 7), /*k=*/4),
  };
  for (const auto& dist : distributions) {
    DistributionStats stats(dist);
    const std::vector<size_t> betas = BetaSweep(dist.size(), 7);
    ASSERT_FALSE(betas.empty());
    for (HistogramType type : kAllTypes) {
      auto sweep = BuildHistogramSweep(type, stats, betas);
      ASSERT_TRUE(sweep.ok()) << HistogramTypeName(type);
      ASSERT_EQ(sweep->size(), betas.size());
      for (size_t b = 0; b < betas.size(); ++b) {
        auto per_beta = BuildHistogram(type, dist, betas[b]);
        ASSERT_TRUE(per_beta.ok())
            << HistogramTypeName(type) << " beta=" << betas[b];
        ExpectBitIdentical((*sweep)[b], *per_beta, HistogramTypeName(type),
                           betas[b]);
      }
    }
  }
}

TEST(HistogramSweepTest, SweepMatchesPerBetaOnRandomData) {
  Rng rng(3);
  std::vector<uint64_t> data(700);
  for (auto& v : data) v = rng.NextBounded(500);
  DistributionStats stats(data);
  // Unsorted betas, duplicates, beta > n, beta == 1, beta == n.
  const std::vector<size_t> betas = {17, 700, 1, 350, 17, 5000, 64};
  for (HistogramType type : kAllTypes) {
    auto sweep = BuildHistogramSweep(type, stats, betas);
    ASSERT_TRUE(sweep.ok()) << HistogramTypeName(type);
    ASSERT_EQ(sweep->size(), betas.size());
    for (size_t b = 0; b < betas.size(); ++b) {
      auto per_beta = BuildHistogram(type, data, betas[b]);
      ASSERT_TRUE(per_beta.ok());
      ExpectBitIdentical((*sweep)[b], *per_beta, HistogramTypeName(type),
                         betas[b]);
    }
  }
}

TEST(HistogramSweepTest, SweepRejectsZeroBucketsAndEmptyDomain) {
  std::vector<uint64_t> data = {1, 2, 3};
  DistributionStats stats(data);
  EXPECT_FALSE(BuildHistogramSweep(HistogramType::kVOptimal, stats, {2, 0})
                   .ok());
  std::vector<uint64_t> empty;
  DistributionStats empty_stats(empty);
  EXPECT_FALSE(
      BuildHistogramSweep(HistogramType::kVOptimal, empty_stats, {2}).ok());
  // Empty beta list is a no-op, not an error.
  auto none = BuildHistogramSweep(HistogramType::kVOptimal, stats, {});
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST(GreedySweepTest, SevenLevelSweepIsOneMergeRun) {
  Rng rng(21);
  std::vector<uint64_t> data(2048);
  for (auto& v : data) v = rng.NextBounded(300);
  DistributionStats stats(data);
  const std::vector<size_t> betas = BetaSweep(data.size(), 7);
  ASSERT_EQ(betas.size(), 7u);

  GreedyMergeMetrics metrics;
  auto sweep = BuildVOptimalGreedySweep(stats, betas, &metrics);
  ASSERT_TRUE(sweep.ok());
  EXPECT_EQ(metrics.merge_runs, 1u);
  // One pass from n singletons down to the smallest requested level.
  EXPECT_EQ(metrics.merges, data.size() - betas.back());

  for (size_t b = 0; b < betas.size(); ++b) {
    auto independent = BuildVOptimalGreedy(data, betas[b]);
    ASSERT_TRUE(independent.ok());
    EXPECT_EQ((*sweep)[b].num_buckets(), betas[b]);
    ExpectBitIdentical((*sweep)[b], *independent, "v-optimal", betas[b]);
  }
}

TEST(MeasureAccuracySweepTest, DeterministicAcrossThreadCounts) {
  Graph graph = ErdosRenyiGraph(120, 500, 4, 5);
  const size_t k = 3;
  auto map = ComputeSelectivities(graph, k);
  ASSERT_TRUE(map.ok());
  PathSpace space(graph.num_labels(), k);
  const std::vector<size_t> betas = BetaSweep(space.size(), 5);
  std::vector<std::string> orderings = PaperOrderingNames();
  orderings.push_back("ideal");

  auto baseline = MeasureAccuracySweep(graph, *map, orderings, k, betas,
                                       HistogramType::kVOptimal,
                                       /*num_threads=*/1);
  ASSERT_TRUE(baseline.ok());
  ASSERT_EQ(baseline->size(), orderings.size() * betas.size());

  for (size_t threads : {2u, 4u}) {
    auto grid = MeasureAccuracySweep(graph, *map, orderings, k, betas,
                                     HistogramType::kVOptimal, threads);
    ASSERT_TRUE(grid.ok()) << "threads=" << threads;
    ASSERT_EQ(grid->size(), baseline->size());
    for (size_t i = 0; i < grid->size(); ++i) {
      const AccuracyResult& a = (*baseline)[i];
      const AccuracyResult& b = (*grid)[i];
      EXPECT_EQ(a.ordering, b.ordering) << "threads=" << threads;
      EXPECT_EQ(a.beta, b.beta);
      // Accuracy payloads must be bit-identical at any thread count; only
      // the wall-clock build_ms field may differ.
      EXPECT_EQ(a.sse, b.sse) << a.ordering << " beta=" << a.beta;
      EXPECT_EQ(a.errors.num_queries, b.errors.num_queries);
      EXPECT_EQ(a.errors.mean_abs_error, b.errors.mean_abs_error)
          << a.ordering << " beta=" << a.beta << " threads=" << threads;
      EXPECT_EQ(a.errors.median_abs_error, b.errors.median_abs_error);
      EXPECT_EQ(a.errors.p90_abs_error, b.errors.p90_abs_error);
      EXPECT_EQ(a.errors.max_abs_error, b.errors.max_abs_error);
      EXPECT_EQ(a.errors.exact_fraction, b.errors.exact_fraction);
    }
  }
}

TEST(MeasureAccuracySweepTest, OneCellCallMatchesReferencePathHistogram) {
  // MeasureAccuracy is the one-cell sweep; the reference it must match is
  // a PathHistogram built on its own and scored path by path through
  // PathHistogram::Estimate.
  Graph graph = ErdosRenyiGraph(100, 400, 3, 9);
  const size_t k = 3;
  auto map = ComputeSelectivities(graph, k);
  ASSERT_TRUE(map.ok());
  PathSpace space(graph.num_labels(), k);
  for (size_t beta : BetaSweep(space.size(), 4)) {
    auto cell = MeasureAccuracy(graph, *map, "sum-based", k, beta,
                                HistogramType::kVOptimal);
    ASSERT_TRUE(cell.ok());
    auto ordering = MakeOrdering("sum-based", graph, k);
    ASSERT_TRUE(ordering.ok());
    auto reference = PathHistogram::Build(*map, std::move(*ordering),
                                          HistogramType::kVOptimal, beta);
    ASSERT_TRUE(reference.ok());
    double max_error = 0.0;
    uint64_t paths = 0;
    space.ForEach([&](const LabelPath& path) {
      max_error = std::max(
          max_error,
          AbsoluteErrorRate(reference->Estimate(path),
                            static_cast<double>(map->Get(path))));
      ++paths;
    });
    // Identical histogram => identical SSE and error multiset.
    EXPECT_EQ(cell->sse, reference->histogram().TotalSse())
        << "beta=" << beta;
    EXPECT_EQ(cell->errors.num_queries, paths);
    EXPECT_EQ(cell->errors.max_abs_error, max_error) << "beta=" << beta;
    EXPECT_EQ(cell->beta, beta);
  }
}

TEST(MeasureAccuracySweepTest, UnknownOrderingReportsFailure) {
  Graph graph = ErdosRenyiGraph(60, 200, 3, 2);
  auto map = ComputeSelectivities(graph, 2);
  ASSERT_TRUE(map.ok());
  auto grid = MeasureAccuracySweep(graph, *map, {"sum-based", "nope"}, 2,
                                   {4}, HistogramType::kEquiWidth);
  EXPECT_FALSE(grid.ok());
}

TEST(MeasureTimingSweepTest, GridShapeAndCalls) {
  Graph graph = ErdosRenyiGraph(80, 300, 3, 4);
  const size_t k = 3;
  auto map = ComputeSelectivities(graph, k);
  ASSERT_TRUE(map.ok());
  PathSpace space(graph.num_labels(), k);
  const std::vector<size_t> betas = BetaSweep(space.size(), 3);
  const std::vector<std::string> orderings = {"num-alph", "sum-based"};

  auto grid = MeasureTimingSweep(graph, *map, orderings, k, betas,
                                 HistogramType::kVOptimal, /*repetitions=*/2);
  ASSERT_TRUE(grid.ok());
  ASSERT_EQ(grid->size(), orderings.size() * betas.size());
  for (size_t o = 0; o < orderings.size(); ++o) {
    for (size_t b = 0; b < betas.size(); ++b) {
      const TimingResult& cell = (*grid)[o * betas.size() + b];
      EXPECT_EQ(cell.beta, betas[b]);
      EXPECT_EQ(cell.calls, 2 * space.size());
      EXPECT_GE(cell.avg_estimate_us, 0.0);
    }
  }
}

}  // namespace
}  // namespace pathest
