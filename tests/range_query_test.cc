// Tests for histogram range queries (EstimateRange) and the estimator's
// index-range API.

#include <gtest/gtest.h>

#include "core/path_histogram.h"
#include "histogram/builders.h"
#include "ordering/factory.h"
#include "path/selectivity.h"
#include "test_util.h"
#include "util/random.h"

namespace pathest {
namespace {

TEST(EstimateRangeTest, FullRangeEqualsTotalSum) {
  std::vector<uint64_t> data = {3, 1, 4, 1, 5, 9, 2, 6};
  auto h = BuildEquiWidth(data, 3);
  ASSERT_TRUE(h.ok());
  EXPECT_NEAR(h->EstimateRange(0, data.size()), 31.0, 1e-9);
}

TEST(EstimateRangeTest, EmptyRangeIsZero) {
  std::vector<uint64_t> data = {3, 1, 4};
  auto h = BuildEquiWidth(data, 2);
  ASSERT_TRUE(h.ok());
  EXPECT_DOUBLE_EQ(h->EstimateRange(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(h->EstimateRange(3, 3), 0.0);
}

TEST(EstimateRangeTest, ExactWhenRangeAlignsWithBuckets) {
  std::vector<uint64_t> data = {10, 20, 30, 40, 50, 60};
  auto h = Histogram::FromBoundaries(data, {2, 4});
  ASSERT_TRUE(h.ok());
  EXPECT_DOUBLE_EQ(h->EstimateRange(0, 2), 30.0);
  EXPECT_DOUBLE_EQ(h->EstimateRange(2, 4), 70.0);
  EXPECT_DOUBLE_EQ(h->EstimateRange(2, 6), 180.0);
}

TEST(EstimateRangeTest, ProRataWithinBucket) {
  std::vector<uint64_t> data = {10, 20, 30, 40};
  auto h = Histogram::FromBoundaries(data, {});  // single bucket, mean 25
  ASSERT_TRUE(h.ok());
  EXPECT_DOUBLE_EQ(h->EstimateRange(0, 1), 25.0);
  EXPECT_DOUBLE_EQ(h->EstimateRange(1, 3), 50.0);
}

TEST(EstimateRangeTest, AdditiveOverSplits) {
  Rng rng(17);
  std::vector<uint64_t> data(200);
  for (auto& v : data) v = rng.NextBounded(100);
  auto h = BuildVOptimalGreedy(data, 16);
  ASSERT_TRUE(h.ok());
  for (int trial = 0; trial < 50; ++trial) {
    uint64_t a = rng.NextBounded(201);
    uint64_t b = rng.NextBounded(201);
    if (a > b) std::swap(a, b);
    uint64_t mid = a + rng.NextBounded(b - a + 1);
    EXPECT_NEAR(h->EstimateRange(a, b),
                h->EstimateRange(a, mid) + h->EstimateRange(mid, b), 1e-7);
  }
}

TEST(EstimateRangeTest, MatchesPointEstimatesSummed) {
  Rng rng(23);
  std::vector<uint64_t> data(64);
  for (auto& v : data) v = rng.NextBounded(30);
  auto h = BuildEquiDepth(data, 7);
  ASSERT_TRUE(h.ok());
  for (uint64_t a = 0; a < 64; a += 5) {
    for (uint64_t b = a; b <= 64; b += 7) {
      double summed = 0.0;
      for (uint64_t i = a; i < b; ++i) summed += h->EstimatePoint(i);
      EXPECT_NEAR(h->EstimateRange(a, b), summed, 1e-7);
    }
  }
}

TEST(EstimateRangeTest, BoundsChecked) {
  std::vector<uint64_t> data = {1, 2, 3};
  auto h = BuildEquiWidth(data, 2);
  ASSERT_TRUE(h.ok());
  EXPECT_DEATH(h->EstimateRange(2, 1), "begin");
  EXPECT_DEATH(h->EstimateRange(0, 4), "out of domain");
}

TEST(PathHistogramRangeTest, IdealOrderingRangeQueryIsSelectivityQuantile) {
  // Under the ideal ordering the domain is sorted by f; a prefix range
  // estimates the total mass of the lowest-selectivity paths.
  Graph g = testing_util::SmallGraph();
  auto map = ComputeSelectivities(g, 3);
  ASSERT_TRUE(map.ok());
  auto ideal = MakeOrderingWithSelectivities("ideal", g, 3, *map);
  ASSERT_TRUE(ideal.ok());
  uint64_t n = (*ideal)->size();
  auto est = PathHistogram::Build(*map, std::move(*ideal),
                                  HistogramType::kVOptimal, n);
  ASSERT_TRUE(est.ok());
  // With beta == n the estimate is exact, so the full range equals the true
  // total mass.
  EXPECT_NEAR(est->EstimateIndexRange(0, n),
              static_cast<double>(map->Total()), 1e-6);
}

}  // namespace
}  // namespace pathest
