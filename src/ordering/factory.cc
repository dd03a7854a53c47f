#include "ordering/factory.h"

#include <memory>

#include "graph/graph_stats.h"
#include "ordering/composite.h"
#include "ordering/gray.h"
#include "ordering/ideal.h"
#include "ordering/lexicographic.h"
#include "ordering/numerical.h"
#include "ordering/random_order.h"
#include "ordering/ranking.h"
#include "ordering/sum_based.h"
#include "path/splitter.h"

namespace pathest {

const std::vector<std::string>& PaperOrderingNames() {
  static const std::vector<std::string> kNames = {
      "num-alph", "num-card", "lex-alph", "lex-card", "sum-based"};
  return kNames;
}

namespace {

// The names MakeOrderingFromStats builds as a SumBasedOrdering.
bool IsSumBasedName(const std::string& name) {
  return name == "sum-based" || name == "sum-card" || name == "sum-alph";
}

// True when the stage-3 index, C(|L| + k, k) − 1 blocks (Σ over m in
// [1, k] of C(|L| + m − 1, m)), fits kMaxSumIndexBlocks. Each step is an
// exact division: C(|L| + m − 1, m) = C(|L| + m − 2, m − 1) · (|L| + m − 1)
// / m.
bool SumIndexFits(uint64_t num_labels, uint64_t k) {
  uint64_t term = 1;  // C(|L| − 1, 0)
  uint64_t total = 0;
  for (uint64_t m = 1; m <= k; ++m) {
    if (__builtin_mul_overflow(term, num_labels + m - 1, &term)) return false;
    term /= m;
    total += term;
    if (total > kMaxSumIndexBlocks) return false;
  }
  return true;
}

std::vector<uint64_t> LabelCardinalities(const Graph& graph) {
  std::vector<uint64_t> f(graph.num_labels());
  for (LabelId l = 0; l < graph.num_labels(); ++l) {
    f[l] = graph.LabelCardinality(l);
  }
  return f;
}

}  // namespace

Status CheckOrderingShape(const std::string& name, uint64_t num_labels,
                          uint64_t k) {
  if (num_labels == 0) return Status::InvalidArgument("empty label set");
  if (k < 1 || k > kMaxPathLength) {
    return Status::InvalidArgument("k out of range");
  }
  const std::string shape =
      "|L| = " + std::to_string(num_labels) + ", k = " + std::to_string(k);
  uint64_t total = 0;
  uint64_t pow = 1;
  for (uint64_t len = 1; len <= k; ++len) {
    if (__builtin_mul_overflow(pow, num_labels, &pow) ||
        __builtin_add_overflow(total, pow, &total)) {
      return Status::InvalidArgument("domain |L_k| overflows u64 at " +
                                     shape);
    }
  }
  if (!IsSumBasedName(name)) return Status::OK();
  SumKeyScheme scheme;
  uint32_t key_bits;
  if (!ChooseSumKeyScheme(num_labels, k, &scheme, &key_bits)) {
    return Status::InvalidArgument(name + " has no 64-bit multiset key at " +
                                   shape);
  }
  if (!SumIndexFits(num_labels, k)) {
    return Status::InvalidArgument(
        name + " stage-3 index exceeds " +
        std::to_string(kMaxSumIndexBlocks) + " blocks at " + shape);
  }
  return Status::OK();
}

Result<OrderingPtr> MakeOrdering(const std::string& name, const Graph& graph,
                                 size_t k) {
  return MakeOrderingFromStats(name, graph.labels(),
                               LabelCardinalities(graph), k);
}

Result<OrderingPtr> MakeOrderingFromStats(
    const std::string& name, const LabelDictionary& dict,
    const std::vector<uint64_t>& cardinalities, size_t k) {
  PATHEST_RETURN_NOT_OK(CheckOrderingShape(name, dict.size(), k));
  if (cardinalities.size() != dict.size()) {
    return Status::InvalidArgument("cardinalities size mismatch");
  }
  PathSpace space(dict.size(), k);
  auto ranking = [&](RankingRule rule) {
    return LabelRanking::Make(rule, dict, cardinalities);
  };

  if (name == "num-alph") {
    return OrderingPtr(
        new NumericalOrdering(space, ranking(RankingRule::kAlphabetical)));
  }
  if (name == "num-card") {
    return OrderingPtr(
        new NumericalOrdering(space, ranking(RankingRule::kCardinality)));
  }
  if (name == "lex-alph") {
    return OrderingPtr(
        new LexicographicOrdering(space, ranking(RankingRule::kAlphabetical)));
  }
  if (name == "lex-card") {
    return OrderingPtr(
        new LexicographicOrdering(space, ranking(RankingRule::kCardinality)));
  }
  if (name == "sum-based" || name == "sum-card") {
    return OrderingPtr(
        new SumBasedOrdering(space, ranking(RankingRule::kCardinality)));
  }
  if (name == "sum-alph") {
    return OrderingPtr(
        new SumBasedOrdering(space, ranking(RankingRule::kAlphabetical)));
  }
  if (name == "gray-alph") {
    return OrderingPtr(
        new GrayOrdering(space, ranking(RankingRule::kAlphabetical)));
  }
  if (name == "gray-card") {
    return OrderingPtr(
        new GrayOrdering(space, ranking(RankingRule::kCardinality)));
  }
  if (name == "random") {
    return OrderingPtr(new RandomOrdering(space, /*seed=*/0x9A7));
  }
  return Status::NotFound("unknown ordering method: " + name);
}

Result<OrderingPtr> MakeOrderingWithSelectivities(
    const std::string& name, const Graph& graph, size_t k,
    const SelectivityMap& selectivities) {
  if (name == "ideal") {
    if (selectivities.space().k() != k ||
        selectivities.space().num_labels() != graph.num_labels()) {
      return Status::InvalidArgument(
          "selectivity map space does not match requested ordering space");
    }
    return OrderingPtr(new IdealOrdering(selectivities));
  }
  if (name == "sum-L2") {
    if (graph.num_labels() == 0) {
      return Status::InvalidArgument("graph has no labels");
    }
    if (selectivities.space().k() < 2) {
      return Status::InvalidArgument(
          "sum-L2 needs selectivities covering length-2 paths");
    }
    PathSpace space(graph.num_labels(), k);
    BaseLabelSet base = BaseLabelSet::UpToLength(graph.num_labels(), 2);
    return OrderingPtr(new CompositeBaseOrdering(space, base, selectivities));
  }
  return MakeOrdering(name, graph, k);
}

}  // namespace pathest
