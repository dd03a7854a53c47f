// Tests for the query-time serving engine: scratch-based Rank fast paths
// (every rank path agrees over whole domains; sum-based, owned and mapped,
// against the first-principles oracle in tests/oracles/ordering_oracle.h,
// across the counts/sorted key boundary and past 64 labels), the
// histogram bucket lookup against tests/oracles/histogram_oracle.h over
// built, copied, mapped and decoded rows, the serial batch API, the
// footprint accounting, and the allocation-free guarantee of the fast path
// (via a global operator-new counting hook).

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <random>
#include <span>
#include <new>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/estimator.h"
#include "core/mapped_catalog.h"
#include "core/path_histogram.h"
#include "core/serialize.h"
#include "core/workload.h"
#include "histogram/builders.h"
#include "ordering/factory.h"
#include "ordering/sum_based.h"
#include "oracles/histogram_oracle.h"
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

// Every replacement is kept out of line: inlined into a call site, a new's
// malloc() or a delete's free() would meet its counterpart from the other
// family, which GCC's -Wmismatched-new-delete reports as a mismatched pair.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new[](std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

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
  EXPECT_EQ(sum->tables().index.scheme, want_scheme);

  const std::vector<uint64_t> table =
      OracleFor("sum-based", graph, k).UnrankTable();
  EXPECT_EQ(oracles::FirstOrderingMismatch(**ordering, table), "")
      << "owned |L|=" << num_labels << " k=" << k;

  // The mapped ordering, rebuilt from a v2 file's metadata while the owned
  // one is alive, shares the owned one's tables.
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
  EXPECT_EQ(&static_cast<const SumBasedOrdering&>(
                 (*mapped)->estimator().ordering())
                 .tables(),
            &static_cast<const SumBasedOrdering&>(served->ordering())
                 .tables());
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

// ---------------------------------------------------------- bucket lookup

TEST(HistogramLookupTest, PointEstimatesBitIdenticalToOracle) {
  const std::vector<uint64_t> data = SyntheticDistribution(1000);
  for (size_t beta : {1, 2, 7, 32, 333}) {
    auto h = BuildHistogram(HistogramType::kVOptimal, data, beta);
    ASSERT_TRUE(h.ok());
    const oracles::HistogramOracle oracle(*h);
    ASSERT_EQ(oracle.buckets().size(), h->num_buckets());
    ASSERT_EQ(oracle.domain_size(), h->domain_size());
    for (uint64_t i = 0; i < h->domain_size(); ++i) {
      // Bit-identical: the same bucket, the same division.
      ASSERT_EQ(h->EstimatePoint(i), oracle.Estimate(i))
          << "beta=" << beta << " i=" << i;
    }
  }
}

TEST(HistogramLookupTest, RangeEstimatesBitIdenticalToOracle) {
  const std::vector<uint64_t> data = SyntheticDistribution(500);
  std::mt19937_64 rng(7);
  for (size_t beta : {1, 2, 17, 64, 500}) {
    auto h = BuildHistogram(HistogramType::kEquiDepth, data, beta);
    ASSERT_TRUE(h.ok());
    const oracles::HistogramOracle oracle(*h);
    for (int draw = 0; draw < 2000; ++draw) {
      uint64_t begin = rng() % 501;
      uint64_t end = rng() % 501;
      if (begin > end) std::swap(begin, end);
      // The same buckets, the same divisions, added in the same order.
      ASSERT_EQ(h->EstimateRange(begin, end),
                oracle.EstimateRange(begin, end))
          << "beta=" << beta << " [" << begin << ", " << end << ")";
    }
    EXPECT_EQ(h->EstimateRange(0, 500), oracle.EstimateRange(0, 500));
    EXPECT_EQ(h->EstimateRange(0, 0), 0.0);
    EXPECT_EQ(h->EstimateRange(500, 500), 0.0);
  }
}

TEST(HistogramLookupTest, RowsThatDoNotAscendKeepEveryReadInside) {
  // Borrowed rows that break the order lookups assume (the kTrusted tier
  // serves such bytes unscanned). The rows sit between guard entries: a
  // read past either end of the sum row would meet a NaN, and one past
  // the begin row a 0 that lets a range walk run on into it. In-range
  // widths are never 0 and every sum is 1, so only a stray read can make
  // an answer NaN. (The ASan build runs this too.)
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<uint64_t> begins = {0, 0, 60, 20, 80, 40, 0};
  const std::vector<double> sums = {nan, 1.0, 1.0, 1.0, 1.0, 1.0, nan};
  Histogram::Rows rows;
  rows.domain_size = 100;
  rows.begin = std::span<const uint64_t>(begins).subspan(1, 5);
  rows.sum = std::span<const double>(sums).subspan(1, 5);
  const Histogram flat = Histogram::Borrow(rows);
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_LT(flat.FindBucket(i), 5u) << i;
    ASSERT_FALSE(std::isnan(flat.EstimatePoint(i))) << i;
    for (uint64_t end = i; end <= 100; ++end) {
      ASSERT_FALSE(std::isnan(flat.EstimateRange(i, end)))
          << "[" << i << ", " << end << ")";
    }
  }
}

TEST(HistogramLookupTest, FindBucketAgreesWithBucketFor) {
  // Every bucket count from 1 to 40 walks the search's window through
  // every odd/even split, and β = n makes every bucket one index wide.
  const std::vector<uint64_t> data = SyntheticDistribution(257);
  std::vector<size_t> betas;
  for (size_t beta = 1; beta <= 40; ++beta) betas.push_back(beta);
  betas.push_back(257);
  for (size_t beta : betas) {
    auto h = BuildHistogram(HistogramType::kEquiWidth, data, beta);
    ASSERT_TRUE(h.ok());
    ASSERT_EQ(h->num_buckets(), beta);
    const oracles::HistogramOracle oracle(*h);
    for (uint64_t i = 0; i < h->domain_size(); ++i) {
      ASSERT_EQ(&oracle.buckets()[h->FindBucket(i)], &oracle.BucketFor(i))
          << "beta=" << beta << " i=" << i;
    }
  }
}

TEST(HistogramFootprintTest, ReportsOwnedAndBorrowedRowBytes) {
  const std::vector<uint64_t> data = SyntheticDistribution(100);
  auto h = BuildHistogram(HistogramType::kEquiWidth, data, 10);
  ASSERT_TRUE(h.ok());
  ASSERT_EQ(h->num_buckets(), 10u);
  // Owned: the begin and sum rows, 16 bytes per bucket — what the
  // builders emit, the estimator serves and catalog v2 persists.
  EXPECT_TRUE(h->owns_storage());
  EXPECT_EQ(h->ResidentBytes(), 10 * (sizeof(uint64_t) + sizeof(double)));
  EXPECT_EQ(h->MappedBytes(), 0u);
  // A copy shares the rows instead of duplicating them.
  const Histogram copy = *h;
  EXPECT_EQ(copy.begins().data(), h->begins().data());
  EXPECT_EQ(copy.sums().data(), h->sums().data());
  // Borrowed: the same bytes, charged to the caller's memory.
  const Histogram borrowed = Histogram::Borrow(
      {h->domain_size(), h->begins(), h->sums()});
  EXPECT_FALSE(borrowed.owns_storage());
  EXPECT_EQ(borrowed.ResidentBytes(), 0u);
  EXPECT_EQ(borrowed.MappedBytes(), h->ResidentBytes());
}

// Every point, and seeded ranges, of `h` bit-identical to `oracle`.
void ExpectMatchesOracle(const Histogram& h,
                         const oracles::HistogramOracle& oracle,
                         const std::string& what) {
  ASSERT_EQ(h.num_buckets(), oracle.buckets().size()) << what;
  ASSERT_EQ(h.domain_size(), oracle.domain_size()) << what;
  const uint64_t n = h.domain_size();
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(h.EstimatePoint(i), oracle.Estimate(i))
        << what << " index " << i;
  }
  std::mt19937_64 rng(n);
  for (int draw = 0; draw < 1000; ++draw) {
    uint64_t begin = rng() % (n + 1);
    uint64_t end = rng() % (n + 1);
    if (begin > end) std::swap(begin, end);
    ASSERT_EQ(h.EstimateRange(begin, end), oracle.EstimateRange(begin, end))
        << what << " [" << begin << ", " << end << ")";
  }
  EXPECT_EQ(h.EstimateRange(0, n), oracle.EstimateRange(0, n)) << what;
}

TEST(HistogramOracleTest, BuiltCopiedMappedAndDecodedFormsAgree) {
  // Built, and an O(1) copy of it.
  Graph graph = TestGraph(6);
  auto ordering = MakeOrdering("sum-based", graph, 3);
  ASSERT_TRUE(ordering.ok());
  auto served = BuildServed(std::move(*ordering), 24);
  ASSERT_TRUE(served.ok());
  const Histogram& built = served->histogram();
  const oracles::HistogramOracle oracle(built);
  ExpectMatchesOracle(built, oracle, "built");
  const Histogram copy = built;
  EXPECT_EQ(copy.begins().data(), built.begins().data());
  ExpectMatchesOracle(copy, oracle, "copy");
  // The serving estimator shares the built rows too.
  EXPECT_EQ(Estimator(*served).histogram().sums().data(), built.sums().data());

  // Borrowed from a mapped v2 file of the built histogram.
  const std::string path = (std::filesystem::temp_directory_path() /
                            "pathest_estimator_oracle.stats")
                               .string();
  ASSERT_TRUE(
      SavePathHistogram(*served, graph, path, CatalogFormat::kBinaryV2).ok());
  {
    auto mapped = MappedCatalogEntry::Open(path, CatalogVerify::kChecksums);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    const Histogram& borrowed = (*mapped)->estimator().histogram();
    EXPECT_FALSE(borrowed.owns_storage());
    ExpectMatchesOracle(borrowed, oracle, "mapped");
  }
  std::filesystem::remove(path);

  // Decoded from every golden (both v1 goldens, v2), and from text.
  size_t goldens = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(PATHEST_SOURCE_DIR) + "/tests/golden")) {
    if (entry.path().extension() != ".stats") continue;
    const std::string name = entry.path().filename().string();
    std::ifstream in(entry.path(), std::ios::binary);
    const std::string bytes{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>()};
    auto decoded = DecodeCatalog(bytes);
    ASSERT_TRUE(decoded.ok()) << name << ": " << decoded.status().ToString();
    const Histogram& h = decoded->estimator.histogram();
    EXPECT_TRUE(h.owns_storage()) << name;
    const oracles::HistogramOracle golden_oracle(h);
    ExpectMatchesOracle(h, golden_oracle, name);
    if (SniffCatalogFormat(bytes) == CatalogFormat::kBinaryV2) {
      auto mapped = MappedCatalogEntry::Open(entry.path().string(),
                                             CatalogVerify::kChecksums);
      ASSERT_TRUE(mapped.ok()) << name << ": " << mapped.status().ToString();
      ExpectMatchesOracle((*mapped)->estimator().histogram(), golden_oracle,
                          name + " mapped");
    }
    std::string text;
    ASSERT_TRUE(EncodeCatalog(decoded->estimator, decoded->labels,
                              decoded->label_cardinalities,
                              CatalogFormat::kText, &text)
                    .ok());
    auto from_text = DecodeCatalog(text);
    ASSERT_TRUE(from_text.ok()) << name << ": "
                                << from_text.status().ToString();
    ExpectMatchesOracle(from_text->estimator.histogram(), golden_oracle,
                        name + " as text");
    ++goldens;
  }
  EXPECT_EQ(goldens, 3u);
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

TEST_F(EstimateBatchTest, IndexRangeIsBitIdenticalToReference) {
  const Estimator estimator(*served_);
  const uint64_t n = estimator.histogram().domain_size();
  for (uint64_t begin : {uint64_t{0}, n / 3, n / 2}) {
    for (uint64_t end : {n / 2, n - 1, n}) {
      if (begin > end) continue;
      EXPECT_EQ(estimator.EstimateIndexRange(begin, end),
                served_->EstimateIndexRange(begin, end))
          << "[" << begin << ", " << end << ")";
    }
  }
}

TEST_F(EstimateBatchTest, ResidentBytesIsTheFlatFootprint) {
  const Estimator estimator(*served_);
  EXPECT_EQ(estimator.ResidentBytes(), estimator.histogram().ResidentBytes());
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
