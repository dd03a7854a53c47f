// Unit tests for the Histogram container and all builder policies.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "histogram/builders.h"
#include "histogram/stats.h"
#include "oracles/greedy_merge_oracle.h"
#include "oracles/histogram_oracle.h"
#include "util/random.h"

namespace pathest {
namespace {

using oracles::Bucket;
using oracles::BucketsOf;
using oracles::MakeBucket;

std::vector<uint64_t> RandomData(size_t n, uint64_t seed, uint64_t max_v) {
  Rng rng(seed);
  std::vector<uint64_t> data(n);
  for (auto& v : data) v = rng.NextBounded(max_v + 1);
  return data;
}

void ExpectValidPartition(const Histogram& h, size_t n, size_t beta) {
  const std::vector<Bucket> buckets = BucketsOf(h);
  ASSERT_FALSE(buckets.empty());
  EXPECT_LE(h.num_buckets(), beta);
  EXPECT_EQ(buckets.front().begin, 0u);
  EXPECT_EQ(buckets.back().end, n);
  for (size_t i = 0; i < h.num_buckets(); ++i) {
    EXPECT_LT(buckets[i].begin, buckets[i].end);
    if (i > 0) {
      EXPECT_EQ(buckets[i].begin, buckets[i - 1].end);
    }
  }
}

TEST(HistogramTest, FromBoundariesComputesSums) {
  std::vector<uint64_t> data = {1, 2, 3, 4, 5, 6};
  auto h = Histogram::FromBoundaries(data, {2, 4});
  ASSERT_TRUE(h.ok());
  ASSERT_EQ(h->num_buckets(), 3u);
  EXPECT_DOUBLE_EQ(h->sums()[0], 3.0);
  EXPECT_DOUBLE_EQ(h->sums()[1], 7.0);
  EXPECT_DOUBLE_EQ(h->sums()[2], 11.0);
  EXPECT_DOUBLE_EQ(h->EstimatePoint(0), 1.5);
  EXPECT_DOUBLE_EQ(h->EstimatePoint(3), 3.5);
  EXPECT_DOUBLE_EQ(h->EstimatePoint(5), 5.5);
  EXPECT_EQ(h->domain_size(), 6u);
}

TEST(HistogramTest, FromBoundariesValidates) {
  std::vector<uint64_t> data = {1, 2, 3};
  EXPECT_FALSE(Histogram::FromBoundaries(data, {0}).ok());   // not > 0
  EXPECT_FALSE(Histogram::FromBoundaries(data, {3}).ok());   // not < n
  EXPECT_FALSE(Histogram::FromBoundaries(data, {2, 2}).ok());  // not strict
  EXPECT_FALSE(Histogram::FromBoundaries({}, {}).ok());      // empty domain
}

TEST(HistogramTest, BucketSse) {
  // values 1, 1, 3, 3 -> mean 2, SSE = 4.
  const std::vector<uint64_t> data = {1, 1, 3, 3};
  auto h = Histogram::FromBoundaries(data, {});
  ASSERT_TRUE(h.ok());
  EXPECT_DOUBLE_EQ(h->sums()[0], 8.0);
  EXPECT_DOUBLE_EQ(TotalSse(*h, data), 4.0);
  EXPECT_DOUBLE_EQ(h->BucketMean(0), 2.0);
}

TEST(HistogramTest, TotalSseMatchesOracleBitForBit) {
  // The free TotalSse squares the data in index order per bucket, as the
  // oracle's records do: bit-identical for every builder and bucket count.
  const std::vector<uint64_t> data = RandomData(300, 4, 90);
  for (HistogramType type :
       {HistogramType::kEquiWidth, HistogramType::kEquiDepth,
        HistogramType::kVOptimal, HistogramType::kVOptimalExact,
        HistogramType::kMaxDiff, HistogramType::kEndBiased}) {
    for (size_t beta : {1u, 7u, 64u, 300u}) {
      auto h = BuildHistogram(type, data, beta);
      ASSERT_TRUE(h.ok()) << HistogramTypeName(type);
      EXPECT_EQ(TotalSse(*h, data),
                oracles::HistogramOracle(*h, data).TotalSse())
          << HistogramTypeName(type) << " beta " << beta;
    }
  }
}

TEST(HistogramTest, SingleBucketEstimateIsGlobalMean) {
  std::vector<uint64_t> data = {0, 0, 12};
  auto h = Histogram::FromBoundaries(data, {});
  ASSERT_TRUE(h.ok());
  for (uint64_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(h->EstimatePoint(i), 4.0);
}

TEST(EquiWidthTest, BucketsHaveNearEqualWidth) {
  auto data = RandomData(100, 1, 50);
  auto h = BuildEquiWidth(data, 7);
  ASSERT_TRUE(h.ok());
  ExpectValidPartition(*h, 100, 7);
  EXPECT_EQ(h->num_buckets(), 7u);
  for (const Bucket& b : BucketsOf(*h)) {
    EXPECT_GE(b.width(), 100 / 7);
    EXPECT_LE(b.width(), 100 / 7 + 1);
  }
}

TEST(EquiWidthTest, BetaLargerThanDomainClamps) {
  std::vector<uint64_t> data = {5, 6, 7};
  auto h = BuildEquiWidth(data, 10);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->num_buckets(), 3u);
  for (uint64_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(h->EstimatePoint(i), static_cast<double>(data[i]));
  }
}

TEST(EquiDepthTest, MassIsBalanced) {
  auto data = RandomData(500, 2, 100);
  auto h = BuildEquiDepth(data, 10);
  ASSERT_TRUE(h.ok());
  ExpectValidPartition(*h, 500, 10);
  double total = 0.0;
  for (double sum : h->sums()) total += sum;
  double target = total / static_cast<double>(h->num_buckets());
  // Each bucket within 3x of target mass (loose: single values can exceed).
  for (double sum : h->sums()) {
    EXPECT_LE(sum, target * 3 + 100);
  }
}

TEST(EquiDepthTest, HandlesAllZeros) {
  std::vector<uint64_t> data(20, 0);
  auto h = BuildEquiDepth(data, 4);
  ASSERT_TRUE(h.ok());
  ExpectValidPartition(*h, 20, 4);
  EXPECT_DOUBLE_EQ(h->EstimatePoint(7), 0.0);
}

TEST(EquiDepthTest, SkewedMassIsolatesHeavyRegion) {
  std::vector<uint64_t> data(100, 1);
  data[50] = 1000;
  auto h = BuildEquiDepth(data, 4);
  ASSERT_TRUE(h.ok());
  ExpectValidPartition(*h, 100, 4);
  // The heavy position must not share a bucket with the whole domain.
  const oracles::HistogramOracle oracle(*h);
  EXPECT_LT(oracle.BucketFor(50).width(), 60u);
}

// Brute-force optimal SSE by trying all boundary placements.
double BruteVOptimalSse(const std::vector<uint64_t>& data, size_t beta,
                        size_t start = 0) {
  if (beta == 1) {
    Bucket b = MakeBucket(data, start, data.size());
    return b.Sse();
  }
  double best = 1e300;
  for (size_t cut = start + 1; cut + (beta - 1) <= data.size(); ++cut) {
    Bucket b = MakeBucket(data, start, cut);
    double rest = BruteVOptimalSse(data, beta - 1, cut);
    best = std::min(best, b.Sse() + rest);
  }
  return best;
}

TEST(VOptimalExactTest, MatchesBruteForce) {
  for (uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    auto data = RandomData(12, seed, 20);
    for (size_t beta : {1u, 2u, 3u, 4u}) {
      auto h = BuildVOptimalExact(data, beta);
      ASSERT_TRUE(h.ok());
      ExpectValidPartition(*h, data.size(), beta);
      double brute = BruteVOptimalSse(data, beta);
      EXPECT_NEAR(TotalSse(*h, data), brute, 1e-6)
          << "seed " << seed << " beta " << beta;
    }
  }
  // Slightly larger domains exercise the Hirschberg recursion (both the
  // forward and backward rows) through several levels.
  for (uint64_t seed : {5ULL, 6ULL}) {
    auto data = RandomData(16, seed, 30);
    for (size_t beta : {5u, 6u, 7u, 15u, 16u}) {
      auto h = BuildVOptimalExact(data, beta);
      ASSERT_TRUE(h.ok());
      ExpectValidPartition(*h, data.size(), beta);
      double brute = BruteVOptimalSse(data, beta);
      EXPECT_NEAR(TotalSse(*h, data), brute, 1e-6)
          << "seed " << seed << " beta " << beta;
    }
  }
}

TEST(VOptimalExactTest, DefaultCeilingAllowsMidSizeDomains) {
  // The pruned-scan + Hirschberg DP raised the default max_n from 4096 to
  // 16384; a 5000-value domain that the seed implementation refused now
  // builds, and the result is never worse than the greedy approximation.
  auto data = RandomData(5000, 17, 100);
  auto exact = BuildVOptimalExact(data, 16);
  ASSERT_TRUE(exact.ok());
  ExpectValidPartition(*exact, data.size(), 16);
  auto greedy = BuildVOptimalGreedy(data, 16);
  ASSERT_TRUE(greedy.ok());
  EXPECT_LE(TotalSse(*exact, data), TotalSse(*greedy, data) + 1e-6);
}

TEST(VOptimalExactTest, PerfectFitWhenBetaCoversSteps) {
  // Three constant plateaus -> zero SSE with 3 buckets.
  std::vector<uint64_t> data = {5, 5, 5, 9, 9, 9, 2, 2, 2};
  auto h = BuildVOptimalExact(data, 3);
  ASSERT_TRUE(h.ok());
  EXPECT_NEAR(TotalSse(*h, data), 0.0, 1e-9);
}

TEST(VOptimalExactTest, RefusesHugeDomain) {
  std::vector<uint64_t> data(5000, 1);
  auto h = BuildVOptimalExact(data, 4, /*max_n=*/4096);
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.status().code(), StatusCode::kResourceExhausted);
}

TEST(VOptimalGreedyTest, ValidPartitionAndExactBucketCount) {
  auto data = RandomData(1000, 5, 200);
  for (size_t beta : {1u, 2u, 10u, 100u, 500u, 1000u}) {
    auto h = BuildVOptimalGreedy(data, beta);
    ASSERT_TRUE(h.ok());
    ExpectValidPartition(*h, 1000, beta);
    EXPECT_EQ(h->num_buckets(), beta);
  }
}

TEST(VOptimalGreedyTest, ZeroSseOnPlateaus) {
  std::vector<uint64_t> data;
  for (int p = 0; p < 5; ++p) {
    for (int i = 0; i < 10; ++i) data.push_back(p * 7);
  }
  auto h = BuildVOptimalGreedy(data, 5);
  ASSERT_TRUE(h.ok());
  EXPECT_NEAR(TotalSse(*h, data), 0.0, 1e-9);
}

TEST(VOptimalGreedyTest, CloseToExactOnSmallInputs) {
  // Greedy is a heuristic; on small random inputs it should stay within a
  // small constant factor of the DP optimum.
  for (uint64_t seed : {10ULL, 11ULL, 12ULL, 13ULL, 14ULL}) {
    auto data = RandomData(64, seed, 30);
    for (size_t beta : {4u, 8u, 16u}) {
      auto exact = BuildVOptimalExact(data, beta);
      auto greedy = BuildVOptimalGreedy(data, beta);
      ASSERT_TRUE(exact.ok());
      ASSERT_TRUE(greedy.ok());
      EXPECT_LE(TotalSse(*greedy, data),
                TotalSse(*exact, data) * 2.0 + 1e-9)
          << "seed " << seed << " beta " << beta;
    }
  }
}

// Seeded inputs shaped like path distributions, where exact ΔSSE ties are
// common: small alphabets, plateaus and ×1000 spikes, n in [2, 3000]. Values
// stay below 10^6, so every bucket sum and sum of squares is an integer a
// double holds exactly and the merge's running sums must equal the sums
// recomputed from the data bit for bit.
std::vector<uint64_t> TieHeavyData(Rng& rng) {
  const size_t n = 2 + rng.NextBounded(2999);
  const uint64_t alphabet = 1 + rng.NextBounded(rng.NextBool() ? 4 : 1000);
  std::vector<uint64_t> data;
  data.reserve(n);
  while (data.size() < n) {
    uint64_t v = rng.NextBounded(alphabet);
    if (rng.NextBounded(40) == 0) v = (v + 1) * 1000;
    const size_t run = rng.NextBool(0.3) ? 1 + rng.NextBounded(40) : 1;
    for (size_t i = 0; i < run && data.size() < n; ++i) data.push_back(v);
  }
  return data;
}

::testing::AssertionResult SameBuckets(const Histogram& h,
                                       const std::vector<Bucket>& want) {
  if (h.num_buckets() != want.size()) {
    return ::testing::AssertionFailure()
           << h.num_buckets() << " buckets, oracle has " << want.size();
  }
  const std::vector<Bucket> buckets = BucketsOf(h);
  for (size_t i = 0; i < want.size(); ++i) {
    const Bucket& got = buckets[i];
    if (got.begin != want[i].begin || got.end != want[i].end ||
        got.sum != want[i].sum) {
      return ::testing::AssertionFailure()
             << "bucket " << i << ": [" << got.begin << ", " << got.end
             << ") sum " << got.sum << ", oracle [" << want[i].begin << ", "
             << want[i].end << ") sum " << want[i].sum;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(GreedyOracleTest, SweepMatchesNaiveReferenceOnTieHeavyInputs) {
  Rng rng(1998);
  for (int trial = 0; trial < 120; ++trial) {
    const std::vector<uint64_t> data = TieHeavyData(rng);
    const size_t n = data.size();
    // Halving levels plus random ones (possibly > n, which clamps).
    std::vector<size_t> betas;
    for (size_t b = n / 2; b >= 1 && betas.size() < 7; b /= 2) {
      betas.push_back(b);
    }
    for (int r = 0; r < 3; ++r) betas.push_back(1 + rng.NextBounded(n + 10));

    const oracles::GreedyOracleRun want =
        oracles::NaiveGreedyMerge(data, betas);
    DistributionStats stats(data);
    GreedyMergeMetrics metrics;
    auto sweep = BuildVOptimalGreedySweep(stats, betas, &metrics);
    ASSERT_TRUE(sweep.ok());
    ASSERT_EQ(sweep->size(), betas.size());
    EXPECT_EQ(metrics.merge_runs, 1u);
    EXPECT_EQ(metrics.merges, want.merges) << "trial " << trial;
    for (size_t i = 0; i < betas.size(); ++i) {
      const size_t level = std::min(betas[i], n);
      ASSERT_TRUE(SameBuckets((*sweep)[i], want.levels.at(level)))
          << "trial " << trial << " n=" << n << " beta=" << betas[i];
    }
    // The per-β entry point walks the same trajectory.
    auto single = BuildVOptimalGreedy(data, betas.back());
    ASSERT_TRUE(single.ok());
    ASSERT_TRUE(SameBuckets(*single,
                            want.levels.at(std::min(betas.back(), n))))
        << "trial " << trial << " per-beta " << betas.back();
  }
}

TEST(GreedyOracleTest, ExactTieMergesLeftPairFirst) {
  // The pairs (1, 2) at positions 0, 3 and 6 tie exactly (ΔSSE 0.5); every
  // other pair costs far more. They must merge left to right.
  const std::vector<uint64_t> data = {1, 2, 50, 1, 2, 50, 1, 2};
  const std::vector<std::vector<uint64_t>> want_begins = {
      {0, 2, 3, 4, 5, 6, 7},  // β = 7
      {0, 2, 3, 5, 6, 7},     // β = 6
      {0, 2, 3, 5, 6},        // β = 5
  };
  DistributionStats stats(data);
  auto sweep = BuildVOptimalGreedySweep(stats, {7, 6, 5});
  ASSERT_TRUE(sweep.ok());
  for (size_t i = 0; i < want_begins.size(); ++i) {
    std::vector<uint64_t> begins;
    for (uint64_t b : (*sweep)[i].begins()) begins.push_back(b);
    EXPECT_EQ(begins, want_begins[i]) << "beta " << 7 - i;
    auto single = BuildVOptimalGreedy(data, 7 - i);
    ASSERT_TRUE(single.ok());
    EXPECT_TRUE(SameBuckets(*single, BucketsOf((*sweep)[i])));
  }
  const oracles::GreedyOracleRun want =
      oracles::NaiveGreedyMerge(data, {7, 6, 5});
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(SameBuckets((*sweep)[i], want.levels.at(7 - i)));
  }
}

TEST(MaxDiffTest, CutsAtLargestGaps) {
  std::vector<uint64_t> data = {1, 1, 1, 100, 100, 100, 1, 1, 1};
  auto h = BuildMaxDiff(data, 3);
  ASSERT_TRUE(h.ok());
  ASSERT_EQ(h->num_buckets(), 3u);
  EXPECT_EQ(h->BucketEnd(0), 3u);
  EXPECT_EQ(h->BucketEnd(1), 6u);
  EXPECT_NEAR(TotalSse(*h, data), 0.0, 1e-9);
}

TEST(MaxDiffTest, SingleBucket) {
  std::vector<uint64_t> data = {3, 9, 1};
  auto h = BuildMaxDiff(data, 1);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->num_buckets(), 1u);
}

TEST(EndBiasedTest, IsolatesHeavyHitters) {
  std::vector<uint64_t> data(50, 2);
  data[10] = 500;
  data[30] = 900;
  auto h = BuildEndBiased(data, 9);  // 4 singletons allowed
  ASSERT_TRUE(h.ok());
  ExpectValidPartition(*h, 50, 9);
  const oracles::HistogramOracle oracle(*h);
  EXPECT_EQ(oracle.BucketFor(10).width(), 1u);
  EXPECT_EQ(oracle.BucketFor(30).width(), 1u);
  EXPECT_DOUBLE_EQ(h->EstimatePoint(10), 500.0);
  EXPECT_DOUBLE_EQ(h->EstimatePoint(30), 900.0);
}

TEST(EndBiasedTest, RespectsBudget) {
  auto data = RandomData(200, 7, 1000);
  for (size_t beta : {2u, 5u, 9u, 33u}) {
    auto h = BuildEndBiased(data, beta);
    ASSERT_TRUE(h.ok());
    EXPECT_LE(h->num_buckets(), beta);
  }
}

TEST(BuilderDispatchTest, AllTypesBuild) {
  auto data = RandomData(128, 9, 40);
  for (HistogramType type :
       {HistogramType::kEquiWidth, HistogramType::kEquiDepth,
        HistogramType::kVOptimal, HistogramType::kVOptimalExact,
        HistogramType::kMaxDiff, HistogramType::kEndBiased}) {
    auto h = BuildHistogram(type, data, 8);
    ASSERT_TRUE(h.ok()) << HistogramTypeName(type);
    ExpectValidPartition(*h, 128, 8);
  }
}

TEST(BuilderDispatchTest, NamesRoundTrip) {
  for (HistogramType type :
       {HistogramType::kEquiWidth, HistogramType::kEquiDepth,
        HistogramType::kVOptimal, HistogramType::kVOptimalExact,
        HistogramType::kMaxDiff, HistogramType::kEndBiased}) {
    auto parsed = ParseHistogramType(HistogramTypeName(type));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, type);
  }
  EXPECT_FALSE(ParseHistogramType("nope").ok());
}

TEST(BuilderInvariantTest, MoreBucketsNeverIncreaseSse) {
  auto data = RandomData(256, 21, 100);
  double prev = 1e300;
  for (size_t beta : {2u, 4u, 8u, 16u, 32u, 64u, 128u}) {
    auto h = BuildVOptimalGreedy(data, beta);
    ASSERT_TRUE(h.ok());
    EXPECT_LE(TotalSse(*h, data), prev + 1e-9) << "beta " << beta;
    prev = TotalSse(*h, data);
  }
}

}  // namespace
}  // namespace pathest
