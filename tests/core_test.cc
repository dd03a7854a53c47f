// Unit tests for core: distributions, error metrics, workloads, the
// PathHistogram estimator, and the experiment runner.

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/distribution.h"
#include "core/error.h"
#include "core/experiment.h"
#include "core/path_histogram.h"
#include "core/report.h"
#include "core/workload.h"
#include "gen/generator.h"
#include "gen/label_assigner.h"
#include "ordering/factory.h"
#include "ordering/ideal.h"
#include "path/selectivity.h"
#include "test_util.h"

namespace pathest {
namespace {

using testing_util::SmallGraph;

TEST(ErrorMetricTest, Formula6) {
  EXPECT_DOUBLE_EQ(SignedErrorRate(5, 5), 0.0);
  EXPECT_DOUBLE_EQ(SignedErrorRate(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(SignedErrorRate(10, 5), 0.5);    // overestimate
  EXPECT_DOUBLE_EQ(SignedErrorRate(5, 10), -0.5);   // underestimate
  EXPECT_DOUBLE_EQ(SignedErrorRate(0, 10), -1.0);
  EXPECT_DOUBLE_EQ(SignedErrorRate(10, 0), 1.0);
  EXPECT_DOUBLE_EQ(AbsoluteErrorRate(5, 10), 0.5);
}

TEST(ErrorMetricTest, BoundedByOne) {
  for (double e : {0.0, 0.1, 3.0, 1e9}) {
    for (double f : {0.0, 0.5, 7.0, 1e6}) {
      EXPECT_LE(AbsoluteErrorRate(e, f), 1.0);
      EXPECT_GE(AbsoluteErrorRate(e, f), 0.0);
    }
  }
}

TEST(ErrorMetricTest, QError) {
  EXPECT_DOUBLE_EQ(QError(10, 5), 2.0);
  EXPECT_DOUBLE_EQ(QError(5, 10), 2.0);
  EXPECT_DOUBLE_EQ(QError(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(QError(0, 8), 8.0);
  EXPECT_DOUBLE_EQ(QError(4, 4), 1.0);
}

TEST(ErrorSummaryTest, Aggregates) {
  ErrorSummary s = SummarizeErrors({0.0, 0.0, 0.5, 1.0});
  EXPECT_EQ(s.num_queries, 4u);
  EXPECT_DOUBLE_EQ(s.mean_abs_error, 0.375);
  EXPECT_DOUBLE_EQ(s.max_abs_error, 1.0);
  EXPECT_DOUBLE_EQ(s.exact_fraction, 0.5);
  EXPECT_DOUBLE_EQ(s.median_abs_error, 0.0);  // lower median of 4
  ErrorSummary empty = SummarizeErrors({});
  EXPECT_EQ(empty.num_queries, 0u);
}

TEST(DistributionTest, IdealOrderingSortsDistribution) {
  Graph g = SmallGraph();
  auto map = ComputeSelectivities(g, 3);
  ASSERT_TRUE(map.ok());
  IdealOrdering ideal(*map);
  auto dist = BuildDistribution(*map, ideal);
  ASSERT_TRUE(dist.ok());
  for (size_t i = 1; i < dist->size(); ++i) {
    EXPECT_LE((*dist)[i - 1], (*dist)[i]);
  }
}

TEST(DistributionTest, PermutesSelectivities) {
  Graph g = SmallGraph();
  auto map = ComputeSelectivities(g, 2);
  ASSERT_TRUE(map.ok());
  for (const std::string& method : PaperOrderingNames()) {
    auto ordering = MakeOrdering(method, g, 2);
    ASSERT_TRUE(ordering.ok());
    auto dist = BuildDistribution(*map, **ordering);
    ASSERT_TRUE(dist.ok());
    // Same multiset of values as the canonical selectivity vector.
    std::vector<uint64_t> a = *dist;
    std::vector<uint64_t> b = map->values();
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << method;
  }
}

TEST(DistributionTest, RejectsMismatchedSpaces) {
  Graph g = SmallGraph();
  auto map_small = ComputeSelectivities(g, 2);
  ASSERT_TRUE(map_small.ok());
  auto ordering = MakeOrdering("num-alph", g, 3);
  ASSERT_TRUE(ordering.ok());
  EXPECT_FALSE(BuildDistribution(*map_small, **ordering).ok());
}

// The gather formulation BuildDistribution replaced: D[i] = f(Unrank(i)).
std::vector<uint64_t> GatherDistribution(const SelectivityMap& map,
                                         const Ordering& ordering) {
  std::vector<uint64_t> dist(ordering.size());
  for (uint64_t i = 0; i < dist.size(); ++i) {
    dist[i] = map.Get(ordering.Unrank(i));
  }
  return dist;
}

// Every ordering the factories build: the closed forms, the random
// baseline, the ideal ordering and the sum-L2 composite.
const std::vector<std::string>& AllOrderingNames() {
  static const std::vector<std::string> names = {
      "num-alph", "num-card",  "lex-alph",  "lex-card", "sum-based",
      "sum-alph", "gray-alph", "gray-card", "random",   "ideal",
      "sum-L2"};
  return names;
}

// Checks BuildDistribution(map, O) against the gather formulation for every
// ordering O over (graph, k). `exact` is a map at exactly k, which the
// selectivity-driven orderings are built from; `map` may have a larger k.
void ExpectScatterMatchesGather(const Graph& graph, size_t k,
                                const SelectivityMap& exact,
                                const SelectivityMap& map) {
  for (const std::string& name : AllOrderingNames()) {
    auto ordering = MakeOrderingWithSelectivities(name, graph, k, exact);
    ASSERT_TRUE(ordering.ok()) << name;
    auto dist = BuildDistribution(map, **ordering);
    ASSERT_TRUE(dist.ok()) << name;
    EXPECT_EQ(*dist, GatherDistribution(map, **ordering))
        << name << " |L|=" << graph.num_labels() << " k=" << k
        << " map k=" << map.space().k();
  }
}

TEST(DistributionTest, ScatterMatchesGatherForEveryOrdering) {
  Graph g = SmallGraph();
  auto map = ComputeSelectivities(g, 3);
  ASSERT_TRUE(map.ok());
  ExpectScatterMatchesGather(g, 3, *map, *map);
}

TEST(DistributionTest, ScatterMatchesGatherWithLargerMapK) {
  Graph g = SmallGraph();
  auto exact = ComputeSelectivities(g, 2);
  auto larger = ComputeSelectivities(g, 4);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(larger.ok());
  ExpectScatterMatchesGather(g, 2, *exact, *larger);
}

TEST(DistributionTest, ScatterMatchesGatherWithSeventyLabels) {
  UniformLabelAssigner labels(70);
  ErdosRenyiParams params;
  params.num_vertices = 400;
  params.num_edges = 6000;
  params.seed = 70;
  auto g = GenerateErdosRenyi(params, &labels);
  ASSERT_TRUE(g.ok());
  ASSERT_EQ(g->num_labels(), 70u);
  auto map = ComputeSelectivities(*g, 2);
  ASSERT_TRUE(map.ok());
  ASSERT_GT(map->CountNonZero(), 70u);
  ExpectScatterMatchesGather(*g, 2, *map, *map);
}

TEST(DistributionTest, RejectsDifferentLabelCounts) {
  Graph g = SmallGraph();  // 3 labels
  SelectivityMap four_labels(PathSpace(4, 3));
  auto ordering = MakeOrdering("num-alph", g, 3);
  ASSERT_TRUE(ordering.ok());
  auto dist = BuildDistribution(four_labels, **ordering);
  ASSERT_FALSE(dist.ok());
  EXPECT_EQ(dist.status().code(), StatusCode::kInvalidArgument);
}

TEST(DistributionTest, ProfileBasics) {
  DistributionProfile p = ProfileDistribution({0, 4, 4, 0});
  EXPECT_EQ(p.n, 4u);
  EXPECT_EQ(p.total, 8u);
  EXPECT_EQ(p.max_value, 4u);
  EXPECT_EQ(p.num_zero, 2u);
  EXPECT_DOUBLE_EQ(p.mean, 2.0);
  EXPECT_DOUBLE_EQ(p.variance, 4.0);
  EXPECT_DOUBLE_EQ(p.total_variation, 4.0 + 0.0 + 4.0);
}

TEST(DistributionTest, IdealMinimizesTotalVariation) {
  Graph g = SmallGraph();
  auto map = ComputeSelectivities(g, 3);
  ASSERT_TRUE(map.ok());
  IdealOrdering ideal(*map);
  auto ideal_dist = BuildDistribution(*map, ideal);
  ASSERT_TRUE(ideal_dist.ok());
  double ideal_tv = ProfileDistribution(*ideal_dist).total_variation;
  for (const std::string& method : PaperOrderingNames()) {
    auto ordering = MakeOrdering(method, g, 3);
    ASSERT_TRUE(ordering.ok());
    auto dist = BuildDistribution(*map, **ordering);
    ASSERT_TRUE(dist.ok());
    EXPECT_GE(ProfileDistribution(*dist).total_variation, ideal_tv) << method;
  }
}

TEST(WorkloadTest, AllPathsCoversSpace) {
  PathSpace space(3, 2);
  auto paths = AllPathsWorkload(space);
  EXPECT_EQ(paths.size(), 12u);
  for (size_t i = 0; i < paths.size(); ++i) {
    EXPECT_EQ(space.CanonicalIndex(paths[i]), i);
  }
}

TEST(WorkloadTest, SampledIsDeterministicPerSeed) {
  PathSpace space(4, 3);
  auto a = SampledWorkload(space, 50, 9);
  auto b = SampledWorkload(space, 50, 9);
  auto c = SampledWorkload(space, 50, 10);
  EXPECT_EQ(a.size(), 50u);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
  EXPECT_FALSE(std::equal(a.begin(), a.end(), c.begin()));
}

TEST(WorkloadTest, NonEmptyOnlyPositive) {
  Graph g = SmallGraph();
  auto map = ComputeSelectivities(g, 3);
  ASSERT_TRUE(map.ok());
  auto paths = NonEmptyWorkload(*map);
  EXPECT_EQ(paths.size(), map->CountNonZero());
  for (const auto& p : paths) EXPECT_GT(map->Get(p), 0u);
}

TEST(WorkloadTest, FixedLength) {
  PathSpace space(3, 3);
  auto paths = FixedLengthWorkload(space, 2);
  EXPECT_EQ(paths.size(), 9u);
  for (const auto& p : paths) EXPECT_EQ(p.length(), 2u);
}

TEST(PathHistogramTest, EndToEndEstimates) {
  Graph g = SmallGraph();
  auto map = ComputeSelectivities(g, 3);
  ASSERT_TRUE(map.ok());
  auto ordering = MakeOrdering("sum-based", g, 3);
  ASSERT_TRUE(ordering.ok());
  auto estimator = PathHistogram::Build(*map, std::move(*ordering),
                                        HistogramType::kVOptimal, 8);
  ASSERT_TRUE(estimator.ok());
  EXPECT_EQ(estimator->histogram().num_buckets(), 8u);
  // Estimates are non-negative and bounded by max frequency.
  uint64_t max_f = 0;
  for (uint64_t v : map->values()) max_f = std::max(max_f, v);
  PathSpace space(g.num_labels(), 3);
  space.ForEach([&](const LabelPath& p) {
    double e = estimator->Estimate(p);
    EXPECT_GE(e, 0.0);
    EXPECT_LE(e, static_cast<double>(max_f));
  });
  EXPECT_NE(estimator->Describe().find("sum-based/v-optimal(8)"),
            std::string::npos);
}

TEST(PathHistogramTest, MaxBucketsGiveExactEstimates) {
  // One bucket per domain position -> the estimator degenerates to the
  // exact selectivity table.
  Graph g = SmallGraph();
  auto map = ComputeSelectivities(g, 2);
  ASSERT_TRUE(map.ok());
  auto ordering = MakeOrdering("num-alph", g, 2);
  ASSERT_TRUE(ordering.ok());
  uint64_t n = (*ordering)->size();
  auto estimator = PathHistogram::Build(*map, std::move(*ordering),
                                        HistogramType::kEquiWidth, n);
  ASSERT_TRUE(estimator.ok());
  PathSpace space(g.num_labels(), 2);
  space.ForEach([&](const LabelPath& p) {
    EXPECT_DOUBLE_EQ(estimator->Estimate(p),
                     static_cast<double>(map->Get(p)));
  });
}

TEST(ExperimentTest, BetaSweepHalves) {
  auto betas = BetaSweep(55986, 7);
  ASSERT_EQ(betas.size(), 7u);
  EXPECT_EQ(betas[0], 27993u);
  EXPECT_EQ(betas[1], 13996u);
  EXPECT_EQ(betas[6], 437u);
  EXPECT_TRUE(BetaSweep(1, 3).empty());
}

TEST(ExperimentTest, MeasureAccuracyRuns) {
  Graph g = SmallGraph();
  auto map = ComputeSelectivities(g, 3);
  ASSERT_TRUE(map.ok());
  auto result = MeasureAccuracy(g, *map, "sum-based", 3, 8,
                                HistogramType::kVOptimal);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ordering, "sum-based");
  EXPECT_EQ(result->errors.num_queries, PathSpace(3, 3).size());
  EXPECT_GE(result->errors.mean_abs_error, 0.0);
  EXPECT_LE(result->errors.mean_abs_error, 1.0);
}

TEST(ExperimentTest, PerfectWithMaxBuckets) {
  Graph g = SmallGraph();
  auto map = ComputeSelectivities(g, 2);
  ASSERT_TRUE(map.ok());
  uint64_t n = PathSpace(3, 2).size();
  auto result =
      MeasureAccuracy(g, *map, "num-card", 2, n, HistogramType::kVOptimal);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->errors.mean_abs_error, 0.0);
  EXPECT_DOUBLE_EQ(result->errors.exact_fraction, 1.0);
}

TEST(ExperimentTest, IdealBeatsOrEqualsOthersInSse) {
  Graph g = SmallGraph();
  auto map = ComputeSelectivities(g, 3);
  ASSERT_TRUE(map.ok());
  auto ideal = MeasureAccuracy(g, *map, "ideal", 3, 6,
                               HistogramType::kVOptimalExact);
  ASSERT_TRUE(ideal.ok());
  for (const std::string& method : PaperOrderingNames()) {
    auto r = MeasureAccuracy(g, *map, method, 3, 6,
                             HistogramType::kVOptimalExact);
    ASSERT_TRUE(r.ok());
    EXPECT_GE(r->sse, ideal->sse - 1e-9) << method;
  }
}

TEST(ReportTableTest, AlignsAndCounts) {
  ReportTable table({"col", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"longer-name", "2"});
  EXPECT_EQ(table.num_rows(), 2u);
  std::string text = table.ToString();
  EXPECT_NE(text.find("col"), std::string::npos);
  EXPECT_NE(text.find("longer-name"), std::string::npos);
  EXPECT_NE(text.find("----"), std::string::npos);
}

TEST(ReportTableTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(0.125, 3), "0.125");
  EXPECT_EQ(FormatDouble(1234567.0, 3), "1.23e+06");
}

}  // namespace
}  // namespace pathest
