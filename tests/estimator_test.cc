// Tests for the query-time serving engine: scratch-based Rank fast paths
// (every rank path agrees over whole domains; sum-based, owned and mapped,
// against the first-principles oracle in tests/oracles/ordering_oracle.h,
// across the counts/sorted key boundary and past 64 labels), the
// FlatHistogram SoA lookup, the serial batch API, the footprint accounting,
// and the allocation-free guarantee of the fast path (via a global
// operator-new counting hook).

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <new>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/estimator.h"
#include "core/mapped_catalog.h"
#include "core/path_histogram.h"
#include "core/serialize.h"
#include "core/workload.h"
#include "histogram/builders.h"
#include "histogram/flat_histogram.h"
#include "ordering/factory.h"
#include "ordering/sum_based.h"
#include "oracles/ordering_oracle.h"
#include "test_util.h"

// ---------------------------------------------------------------------------
// Allocation-counting test hook: replace the global allocation functions and
// count every heap allocation made by this binary. The fast-path test warms
// a scratch, snapshots the counter, runs thousands of estimates, and asserts
// the counter did not move — the "zero heap allocations per call" acceptance
// criterion, enforced rather than eyeballed.
// ---------------------------------------------------------------------------

namespace {
std::atomic<uint64_t> g_allocation_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pathest {
namespace {

// Small deliberately non-monotone cardinalities, as in the ordering
// property tests, so alphabetical and cardinality rankings differ.
Graph TestGraph(size_t num_labels) {
  std::vector<std::pair<std::string, uint64_t>> cards;
  for (size_t i = 0; i < num_labels; ++i) {
    cards.push_back({std::to_string(i + 1), 10 + ((i * 37 + 13) % 100) * 3});
  }
  return testing_util::GraphWithCardinalities(cards);
}

// A deterministic, skewed frequency sequence (no selectivity pipeline
// needed; estimation cost does not depend on the values).
std::vector<uint64_t> SyntheticDistribution(uint64_t n) {
  std::vector<uint64_t> data(n);
  for (uint64_t i = 0; i < n; ++i) data[i] = (i * i + 7 * i) % 101;
  return data;
}

// Builds a served PathHistogram over `ordering` with a v-optimal histogram
// of `beta` buckets on the synthetic distribution.
Result<PathHistogram> BuildServed(OrderingPtr ordering, size_t beta) {
  auto histogram = BuildHistogram(HistogramType::kVOptimal,
                                  SyntheticDistribution(ordering->size()),
                                  beta);
  if (!histogram.ok()) return histogram.status();
  return PathHistogram::FromParts(std::move(ordering), std::move(*histogram),
                                  HistogramType::kVOptimal);
}

// --------------------------------------------------------------- round trip

// (method, k): every factory ordering × k ∈ {2, 3, 4} over a small |L|.
using RoundTripParam = std::tuple<std::string, size_t>;

class FastPathRoundTripTest
    : public ::testing::TestWithParam<RoundTripParam> {};

bool IsSumFamily(const std::string& method) {
  return method == "sum-based" || method == "sum-card" ||
         method == "sum-alph";
}

// The sum-family oracle for `ordering`, with the ranking rebuilt from the
// graph rather than read back from the ordering under test.
oracles::SumOrderingOracle OracleFor(const std::string& method,
                                     const Graph& graph, size_t k) {
  std::vector<uint64_t> cards(graph.num_labels());
  for (LabelId l = 0; l < graph.num_labels(); ++l) {
    cards[l] = graph.LabelCardinality(l);
  }
  const RankingRule rule = method == "sum-alph" ? RankingRule::kAlphabetical
                                                : RankingRule::kCardinality;
  return oracles::SumOrderingOracle(
      PathSpace(graph.num_labels(), k),
      LabelRanking::Make(rule, graph.labels(), cards));
}

TEST_P(FastPathRoundTripTest, EveryRankPathAgreesOverEveryDomainIndex) {
  const auto& [method, k] = GetParam();
  Graph graph = TestGraph(5);
  auto ordering = MakeOrdering(method, graph, k);
  ASSERT_TRUE(ordering.ok()) << ordering.status().ToString();

  auto served = BuildServed(std::move(*ordering), 16);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  const Ordering& ord = served->ordering();
  const Estimator estimator(*served);

  RankScratch scratch;
  for (uint64_t i = 0; i < ord.size(); ++i) {
    const LabelPath p = ord.Unrank(i);
    // Plain, virtual scratch overload, and the estimator's type-tagged
    // dispatch must all agree on every single index.
    ASSERT_EQ(ord.Rank(p), i) << method << " k=" << k;
    ASSERT_EQ(ord.Rank(p, scratch), i) << method << " k=" << k;
    ASSERT_EQ(estimator.Rank(p, scratch), i) << method << " k=" << k;
  }
  if (IsSumFamily(method)) {
    // Sum-based Rank and Unrank run on one set of flat tables; the
    // first-principles oracle checks that arithmetic on every index.
    const std::vector<uint64_t> table =
        OracleFor(method, graph, k).UnrankTable();
    EXPECT_EQ(oracles::FirstOrderingMismatch(ord, table), "")
        << method << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFactoryOrderings, FastPathRoundTripTest,
    ::testing::Combine(
        ::testing::Values("num-alph", "num-card", "lex-alph", "lex-card",
                          "sum-based", "sum-card", "sum-alph", "gray-alph",
                          "gray-card", "random"),
        ::testing::Values(2, 3, 4)),
    [](const ::testing::TestParamInfo<RoundTripParam>& info) {
      std::string name = std::get<0>(info.param) + "_k" +
                         std::to_string(std::get<1>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// Sum-based shapes at the edges of the key encodings, owned and mapped,
// against the oracle on every index: |L| = 32 at k = 3 is the widest
// counts-keyed space (32 two-bit fields fill the key), 33 the first
// sorted-keyed one, and |L| = 70 is past the 64 labels a fixed per-rank
// buffer once assumed.
using ShapeParam = std::tuple<size_t, size_t>;  // (|L|, k)

class SumBasedShapeTest : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(SumBasedShapeTest, OwnedAndMappedMatchOracleOnEveryIndex) {
  const auto& [num_labels, k] = GetParam();
  Graph graph = TestGraph(num_labels);
  auto ordering = MakeOrdering("sum-based", graph, k);
  ASSERT_TRUE(ordering.ok()) << ordering.status().ToString();
  auto* sum = dynamic_cast<const SumBasedOrdering*>(ordering->get());
  ASSERT_NE(sum, nullptr);
  const SumKeyScheme want_scheme =
      num_labels <= 32 ? SumKeyScheme::kCounts : SumKeyScheme::kSorted;
  EXPECT_EQ(sum->stage3_view().scheme, want_scheme);

  const std::vector<uint64_t> table =
      OracleFor("sum-based", graph, k).UnrankTable();
  EXPECT_EQ(oracles::FirstOrderingMismatch(**ordering, table), "")
      << "owned |L|=" << num_labels << " k=" << k;

  // The mapped ordering borrows both tables out of a v2 file.
  auto histogram = BuildHistogram(HistogramType::kEquiWidth,
                                  SyntheticDistribution((*ordering)->size()),
                                  16);
  ASSERT_TRUE(histogram.ok());
  auto served = PathHistogram::FromParts(
      std::move(*ordering), std::move(*histogram), HistogramType::kEquiWidth);
  ASSERT_TRUE(served.ok());
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("pathest_estimator_shape_" + std::to_string(num_labels) + "_" +
        std::to_string(k) + ".stats"))
          .string();
  ASSERT_TRUE(
      SavePathHistogram(*served, graph, path, CatalogFormat::kBinaryV2).ok());
  auto mapped = MappedCatalogEntry::Open(path, CatalogVerify::kChecksums);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(oracles::FirstOrderingMismatch(
                (*mapped)->estimator().ordering(), table),
            "")
      << "mapped |L|=" << num_labels << " k=" << k;
  std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(
    KeyBoundaryAndManyLabels, SumBasedShapeTest,
    ::testing::Values(ShapeParam{32, 3}, ShapeParam{33, 3},
                      ShapeParam{70, 2}, ShapeParam{70, 3}),
    [](const ::testing::TestParamInfo<ShapeParam>& info) {
      return "L" + std::to_string(std::get<0>(info.param)) + "_k" +
             std::to_string(std::get<1>(info.param));
    });

// ------------------------------------------------------------ flat lookup

TEST(FlatHistogramTest, PointEstimatesBitIdenticalToHistogram) {
  const std::vector<uint64_t> data = SyntheticDistribution(1000);
  for (size_t beta : {1, 2, 7, 32, 333}) {
    auto h = BuildHistogram(HistogramType::kVOptimal, data, beta);
    ASSERT_TRUE(h.ok());
    FlatHistogram flat(*h);
    ASSERT_EQ(flat.num_buckets(), h->num_buckets());
    ASSERT_EQ(flat.domain_size(), h->domain_size());
    for (uint64_t i = 0; i < h->domain_size(); ++i) {
      // Bit-identical: same division, performed once at build time.
      ASSERT_EQ(flat.EstimatePoint(i), h->Estimate(i)) << "beta=" << beta
                                                       << " i=" << i;
    }
  }
}

TEST(FlatHistogramTest, RangeEstimatesMatchHistogramUpToRounding) {
  const std::vector<uint64_t> data = SyntheticDistribution(500);
  auto h = BuildHistogram(HistogramType::kEquiDepth, data, 17);
  ASSERT_TRUE(h.ok());
  FlatHistogram flat(*h);
  for (uint64_t begin = 0; begin <= 500; begin += 13) {
    for (uint64_t end = begin; end <= 500; end += 29) {
      const double expect = h->EstimateRange(begin, end);
      const double got = flat.EstimateRange(begin, end);
      // The flat path sums interior buckets through a prefix array, which
      // associates the additions differently — equal up to FP rounding.
      ASSERT_NEAR(got, expect, 1e-9 * (1.0 + std::abs(expect)))
          << "[" << begin << ", " << end << ")";
    }
  }
  EXPECT_EQ(flat.EstimateRange(0, 0), 0.0);
  EXPECT_EQ(flat.EstimateRange(500, 500), 0.0);
}

TEST(FlatHistogramTest, FindBucketAgreesWithBucketFor) {
  const std::vector<uint64_t> data = SyntheticDistribution(257);
  auto h = BuildHistogram(HistogramType::kMaxDiff, data, 9);
  ASSERT_TRUE(h.ok());
  FlatHistogram flat(*h);
  for (uint64_t i = 0; i < h->domain_size(); ++i) {
    const Bucket& b = h->BucketFor(i);
    EXPECT_EQ(h->buckets()[flat.FindBucket(i)].begin, b.begin) << i;
  }
}

TEST(HistogramFootprintTest, ReportsDiagnosticAndEstimatorBytes) {
  const std::vector<uint64_t> data = SyntheticDistribution(100);
  auto h = BuildHistogram(HistogramType::kEquiWidth, data, 10);
  ASSERT_TRUE(h.ok());
  ASSERT_EQ(h->num_buckets(), 10u);
  // Diagnostic: the full 32-byte Bucket (begin, end, sum, sumsq) — what the
  // build side holds and what serialization writes.
  EXPECT_EQ(h->ApproxBytes(), 10 * sizeof(Bucket));
  EXPECT_EQ(sizeof(Bucket), 32u);
  // Estimator-resident: the flat SoA rows (begin + mean + prefix mass,
  // one prefix entry extra) plus the Eytzinger boundary index.
  FlatHistogram flat(*h);
  EXPECT_EQ(flat.ResidentBytes(),
            10 * (sizeof(uint64_t) + sizeof(double)) +   // begin_, mean_
                11 * sizeof(double) +                    // prefix_sum_
                11 * (sizeof(uint64_t) + sizeof(uint32_t)));  // eytz rows
  EXPECT_LT(flat.ResidentBytes(), h->ApproxBytes() * 2);
}

// ------------------------------------------------------------- batch APIs

class EstimateBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Graph graph = TestGraph(6);
    auto ordering = MakeOrdering("sum-based", graph, 3);
    ASSERT_TRUE(ordering.ok());
    space_ = std::make_unique<PathSpace>((*ordering)->space());
    auto served = BuildServed(std::move(*ordering), 24);
    ASSERT_TRUE(served.ok());
    served_ = std::make_unique<PathHistogram>(std::move(*served));
    workload_ = AllPathsWorkload(*space_);
  }

  std::unique_ptr<PathSpace> space_;
  std::unique_ptr<PathHistogram> served_;
  std::vector<LabelPath> workload_;
};

TEST_F(EstimateBatchTest, SerialBatchMatchesReferenceEstimates) {
  const Estimator estimator(*served_);
  std::vector<double> out(workload_.size());
  estimator.EstimateBatch(workload_, out);
  for (size_t i = 0; i < workload_.size(); ++i) {
    ASSERT_EQ(out[i], served_->Estimate(workload_[i])) << i;
  }
}

TEST_F(EstimateBatchTest, IndexRangeGoesThroughFlatPrefixSums) {
  const Estimator estimator(*served_);
  const uint64_t n = estimator.flat().domain_size();
  const double whole = estimator.EstimateIndexRange(0, n);
  const double split = estimator.EstimateIndexRange(0, n / 2) +
                       estimator.EstimateIndexRange(n / 2, n);
  EXPECT_NEAR(whole, split, 1e-9 * (1.0 + std::abs(whole)));
  EXPECT_NEAR(whole, served_->EstimateIndexRange(0, n),
              1e-9 * (1.0 + std::abs(whole)));
}

TEST_F(EstimateBatchTest, ResidentBytesIsTheFlatFootprint) {
  const Estimator estimator(*served_);
  EXPECT_EQ(estimator.ResidentBytes(), estimator.flat().ResidentBytes());
  EXPECT_GT(estimator.ResidentBytes(), 0u);
}

// ------------------------------------------------------- allocation-free

TEST(AllocationFreeTest, FastPathRankAndEstimateDoNotAllocate) {
  Graph graph = TestGraph(6);
  for (const char* method : {"num-alph", "num-card", "lex-alph", "lex-card",
                             "sum-based", "sum-alph", "gray-alph", "gray-card",
                             "random"}) {
    auto ordering = MakeOrdering(method, graph, 4);
    ASSERT_TRUE(ordering.ok());
    auto served = BuildServed(std::move(*ordering), 32);
    ASSERT_TRUE(served.ok());
    const Estimator estimator(*served);

    // Materialize the workload and take one estimate BEFORE counting.
    std::vector<LabelPath> workload;
    const PathSpace& space = estimator.ordering().space();
    for (uint64_t i = 0; i < space.size(); i += 7) {
      workload.push_back(space.CanonicalPath(i));
    }
    RankScratch scratch;
    double sink = estimator.Estimate(workload[0], scratch);

    const uint64_t before =
        g_allocation_count.load(std::memory_order_relaxed);
    for (int rep = 0; rep < 3; ++rep) {
      for (const LabelPath& path : workload) {
        sink += estimator.Estimate(path, scratch);
      }
    }
    const uint64_t after = g_allocation_count.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << method << ": fast-path estimation allocated on the heap";
    EXPECT_GE(sink, 0.0);  // keep the loop alive
  }
}

// The sum-based plain Rank runs the fast path on a local scratch, and
// Unrank decodes its block key into fixed arrays: neither allocates.
TEST(AllocationFreeTest, SumBasedPlainRankAndUnrankDoNotAllocate) {
  for (size_t num_labels : {6, 40}) {  // counts and sorted keys
    Graph graph = TestGraph(num_labels);
    auto ordering = MakeOrdering("sum-based", graph, 3);
    ASSERT_TRUE(ordering.ok());
    const auto& sum = dynamic_cast<const SumBasedOrdering&>(**ordering);
    std::vector<LabelPath> paths;
    for (uint64_t i = 0; i < sum.size(); i += 5) {
      paths.push_back(sum.space().CanonicalPath(i));
    }
    RankScratch scratch;
    uint64_t sink = 0;
    const uint64_t before =
        g_allocation_count.load(std::memory_order_relaxed);
    for (const LabelPath& path : paths) {
      sink += sum.Rank(path);
      sink += sum.Unrank(sink % sum.size()).length();
      sink += sum.Unrank(sink % sum.size(), scratch).length();
    }
    EXPECT_EQ(g_allocation_count.load(std::memory_order_relaxed) - before,
              0u)
        << "|L|=" << num_labels;
    EXPECT_GT(sink, 0u);
  }
}

// The serial batch API is equally allocation-free, whatever the batch
// size.
TEST(AllocationFreeTest, BatchCostIsIndependentOfBatchSize) {
  Graph graph = TestGraph(6);
  auto ordering = MakeOrdering("sum-based", graph, 4);
  ASSERT_TRUE(ordering.ok());
  auto served = BuildServed(std::move(*ordering), 32);
  ASSERT_TRUE(served.ok());
  const Estimator estimator(*served);
  const PathSpace& space = estimator.ordering().space();

  std::vector<LabelPath> small(1, space.CanonicalPath(0));
  std::vector<LabelPath> large;
  for (uint64_t i = 0; i < space.size(); i += 3) {
    large.push_back(space.CanonicalPath(i));
  }
  std::vector<double> out_small(small.size());
  std::vector<double> out_large(large.size());

  const uint64_t before_small =
      g_allocation_count.load(std::memory_order_relaxed);
  estimator.EstimateBatch(small, out_small);
  const uint64_t cost_small =
      g_allocation_count.load(std::memory_order_relaxed) - before_small;

  const uint64_t before_large =
      g_allocation_count.load(std::memory_order_relaxed);
  estimator.EstimateBatch(large, out_large);
  const uint64_t cost_large =
      g_allocation_count.load(std::memory_order_relaxed) - before_large;

  EXPECT_EQ(cost_small, 0u);
  EXPECT_EQ(cost_large, 0u);
}

}  // namespace
}  // namespace pathest
