// Property tests over every ordering method: bijection round-trips,
// stage-structure invariants, ranking-rule consistency, and the sum
// orderings against the first-principles oracle, swept with parameterized
// gtest across label-set sizes and path lengths; plus the factory's shape
// gate.

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "gen/generator.h"
#include "ordering/factory.h"
#include "ordering/lexicographic.h"
#include "ordering/numerical.h"
#include "ordering/sum_based.h"
#include "oracles/ordering_oracle.h"
#include "test_util.h"

namespace pathest {
namespace {

// (method, num_labels, k)
using Param = std::tuple<std::string, size_t, size_t>;

class OrderingPropertyTest : public ::testing::TestWithParam<Param> {
 protected:
  void SetUp() override {
    const auto& [method, num_labels, k] = GetParam();
    method_ = method;
    k_ = k;
    // Distinct, deliberately non-monotone cardinalities so that alphabetical
    // and cardinality rankings differ.
    std::vector<std::pair<std::string, uint64_t>> cards;
    for (size_t i = 0; i < num_labels; ++i) {
      uint64_t f = 10 + ((i * 37 + 13) % 100) * 3;
      cards.push_back({std::to_string(i + 1), f});
    }
    graph_ = std::make_unique<Graph>(
        testing_util::GraphWithCardinalities(cards));
    auto ordering = MakeOrdering(method_, *graph_, k_);
    ASSERT_TRUE(ordering.ok()) << ordering.status().ToString();
    ordering_ = std::move(*ordering);
  }

  std::string method_;
  size_t k_ = 0;
  std::unique_ptr<Graph> graph_;
  OrderingPtr ordering_;
};

TEST_P(OrderingPropertyTest, UnrankThenRankIsIdentity) {
  for (uint64_t i = 0; i < ordering_->size(); ++i) {
    LabelPath p = ordering_->Unrank(i);
    ASSERT_TRUE(ordering_->space().Contains(p)) << i;
    EXPECT_EQ(ordering_->Rank(p), i);
  }
}

TEST_P(OrderingPropertyTest, RankThenUnrankIsIdentity) {
  ordering_->space().ForEach([&](const LabelPath& p) {
    uint64_t i = ordering_->Rank(p);
    ASSERT_LT(i, ordering_->size());
    EXPECT_EQ(ordering_->Unrank(i), p);
  });
}

TEST_P(OrderingPropertyTest, IndexesAreAPermutation) {
  std::set<uint64_t> seen;
  ordering_->space().ForEach(
      [&](const LabelPath& p) { seen.insert(ordering_->Rank(p)); });
  EXPECT_EQ(seen.size(), ordering_->size());
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), ordering_->size() - 1);
}

TEST_P(OrderingPropertyTest, NumAndSumAreLengthMajor) {
  if (method_ != "num-alph" && method_ != "num-card" &&
      method_ != "sum-based" && method_ != "sum-alph") {
    GTEST_SKIP() << "length-major structure applies to num/sum orderings";
  }
  // Indexes of shorter paths all precede indexes of longer paths.
  size_t prev_len = 1;
  for (uint64_t i = 0; i < ordering_->size(); ++i) {
    size_t len = ordering_->Unrank(i).length();
    EXPECT_GE(len, prev_len) << "index " << i;
    prev_len = len;
  }
}

TEST_P(OrderingPropertyTest, SumBasedIsSummedRankMajorWithinLength) {
  if (method_ != "sum-based" && method_ != "sum-alph") {
    GTEST_SKIP() << "applies to sum orderings only";
  }
  auto* sum = dynamic_cast<SumBasedOrdering*>(ordering_.get());
  ASSERT_NE(sum, nullptr);
  const LabelRanking& ranking = sum->ranking();
  uint64_t prev_key = 0;
  for (uint64_t i = 0; i < ordering_->size(); ++i) {
    LabelPath p = ordering_->Unrank(i);
    uint64_t sr = 0;
    for (size_t j = 0; j < p.length(); ++j) sr += ranking.RankOf(p.label(j));
    // Key: (length, summed rank) must be non-decreasing over the domain.
    uint64_t key = (static_cast<uint64_t>(p.length()) << 32) | sr;
    EXPECT_GE(key, prev_key) << "index " << i;
    prev_key = key;
  }
}

TEST_P(OrderingPropertyTest, SumBasedMatchesOracleOnEveryIndex) {
  if (method_ != "sum-based" && method_ != "sum-alph") {
    GTEST_SKIP() << "the oracle covers the sum orderings";
  }
  std::vector<uint64_t> cards(graph_->num_labels());
  for (LabelId l = 0; l < graph_->num_labels(); ++l) {
    cards[l] = graph_->LabelCardinality(l);
  }
  const RankingRule rule = method_ == "sum-alph" ? RankingRule::kAlphabetical
                                                 : RankingRule::kCardinality;
  const oracles::SumOrderingOracle oracle(
      PathSpace(graph_->num_labels(), k_),
      LabelRanking::Make(rule, graph_->labels(), cards));
  EXPECT_EQ(oracles::FirstOrderingMismatch(*ordering_, oracle.UnrankTable()),
            "");
}

TEST_P(OrderingPropertyTest, LexNeverPlacesExtensionBeforePrefix) {
  if (method_ != "lex-alph" && method_ != "lex-card") {
    GTEST_SKIP() << "prefix property is lex-specific";
  }
  // Dictionary order: a path always precedes every path it prefixes.
  ordering_->space().ForEach([&](const LabelPath& p) {
    if (p.length() < 2) return;
    EXPECT_LT(ordering_->Rank(p.Prefix(p.length() - 1)), ordering_->Rank(p));
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OrderingPropertyTest,
    ::testing::Combine(
        ::testing::Values("num-alph", "num-card", "lex-alph", "lex-card",
                          "sum-based", "sum-alph", "gray-alph", "gray-card",
                          "random"),
        ::testing::Values(2, 3, 5, 6),
        ::testing::Values(1, 2, 3, 4)),
    [](const ::testing::TestParamInfo<Param>& info) {
      auto name = std::get<0>(info.param) + "_L" +
                  std::to_string(std::get<1>(info.param)) + "_k" +
                  std::to_string(std::get<2>(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// Larger single-shot round-trip at paper scale: 6 labels, k = 6 (|L_6| =
// 55986) for the two closed-form orderings and sum-based.
TEST(OrderingScaleTest, PaperScaleRoundTrip) {
  std::vector<std::pair<std::string, uint64_t>> cards;
  for (size_t i = 0; i < 6; ++i) {
    cards.push_back({std::to_string(i + 1), 100 + i * 17});
  }
  Graph graph = testing_util::GraphWithCardinalities(cards);
  for (const std::string& method : PaperOrderingNames()) {
    auto ordering = MakeOrdering(method, graph, 6);
    ASSERT_TRUE(ordering.ok());
    EXPECT_EQ((*ordering)->size(), 55986u);
    // Stride through the domain to keep runtime bounded.
    for (uint64_t i = 0; i < (*ordering)->size(); i += 97) {
      EXPECT_EQ((*ordering)->Rank((*ordering)->Unrank(i)), i);
    }
    // Always check the extremes.
    EXPECT_EQ((*ordering)->Rank((*ordering)->Unrank(0)), 0u);
    EXPECT_EQ((*ordering)->Rank((*ordering)->Unrank(55985)), 55985u);
  }
}

TEST(OrderingFactoryTest, RejectsUnknownMethod) {
  Graph graph = testing_util::PaperExampleGraph();
  EXPECT_EQ(MakeOrdering("bogus", graph, 2).status().code(),
            StatusCode::kNotFound);
}

TEST(OrderingFactoryTest, RejectsBadK) {
  Graph graph = testing_util::PaperExampleGraph();
  EXPECT_FALSE(MakeOrdering("num-alph", graph, 0).ok());
  EXPECT_FALSE(MakeOrdering("num-alph", graph, kMaxPathLength + 1).ok());
}

// Labels "0".."n-1" with equal cardinalities: enough for the shape gate,
// which must refuse before anything sized by the shape is built.
void MakeStats(size_t n, LabelDictionary* dict, std::vector<uint64_t>* cards) {
  for (size_t i = 0; i < n; ++i) dict->Intern(std::to_string(i));
  cards->assign(n, 1);
}

TEST(OrderingFactoryTest, RefusesUnservableShapesWithATypedError) {
  LabelDictionary wide;
  std::vector<uint64_t> wide_cards;
  MakeStats(4096, &wide, &wide_cards);
  // |L_5| fits u64, but no 64-bit key holds a size-5 multiset over 4096
  // ranks (15-bit counts x 4096 or 13-bit values x 5).
  auto keyless = MakeOrderingFromStats("sum-based", wide, wide_cards, 5);
  EXPECT_EQ(keyless.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(keyless.status().message().find("no 64-bit multiset key"),
            std::string::npos)
      << keyless.status().ToString();
  EXPECT_FALSE(CheckOrderingShape("sum-alph", 4096, 5).ok());
  EXPECT_FALSE(CheckOrderingShape("sum-card", 4096, 5).ok());
  // The closed-form orderings need no key: the same shape is servable.
  EXPECT_TRUE(CheckOrderingShape("num-card", 4096, 5).ok());

  LabelDictionary twenty;
  std::vector<uint64_t> twenty_cards;
  MakeStats(20, &twenty, &twenty_cards);
  // 20^16 > 2^64: the domain itself overflows, for every ordering.
  auto overflow = MakeOrderingFromStats("num-card", twenty, twenty_cards, 16);
  EXPECT_EQ(overflow.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(overflow.status().message().find("overflows u64"),
            std::string::npos)
      << overflow.status().ToString();
  EXPECT_FALSE(CheckOrderingShape("sum-based", 20, 16).ok());
  EXPECT_FALSE(CheckOrderingShape("lex-alph", 20, 16).ok());
  EXPECT_TRUE(CheckOrderingShape("num-card", 20, 14).ok());  // 20^14 < 2^64

  EXPECT_FALSE(CheckOrderingShape("num-card", 0, 2).ok());
  EXPECT_FALSE(CheckOrderingShape("num-card", 3, 0).ok());
  EXPECT_FALSE(CheckOrderingShape("num-card", 3, kMaxPathLength + 1).ok());
}

TEST(OrderingFactoryTest, PaperNamesAllConstruct) {
  Graph graph = testing_util::PaperExampleGraph();
  for (const std::string& name : PaperOrderingNames()) {
    auto ordering = MakeOrdering(name, graph, 3);
    ASSERT_TRUE(ordering.ok()) << name;
    EXPECT_EQ((*ordering)->name(), name);
  }
}

TEST(OrderingFactoryTest, SumCardAliasesSumBased) {
  Graph graph = testing_util::PaperExampleGraph();
  auto ordering = MakeOrdering("sum-card", graph, 2);
  ASSERT_TRUE(ordering.ok());
  EXPECT_EQ((*ordering)->name(), "sum-based");
}

}  // namespace
}  // namespace pathest
