#include "core/mapped_catalog.h"

#include <utility>

#include "core/serialize_internal.h"
#include "histogram/flat_histogram.h"
#include "ordering/factory.h"
#include "ordering/ranking.h"
#include "ordering/sum_based.h"
#include "path/path_space.h"
#include "util/combinatorics.h"

namespace pathest {

namespace {

// The serializable sum-family names and the ranking rule each one encodes
// (SumBasedOrdering canonicalizes "sum-card" to "sum-based" before any
// catalog is written, so only these two appear on disk).
bool SumRankingRuleForName(const std::string& name, RankingRule* rule) {
  if (name == "sum-based") {
    *rule = RankingRule::kCardinality;
    return true;
  }
  if (name == "sum-alph") {
    *rule = RankingRule::kAlphabetical;
    return true;
  }
  return false;
}

}  // namespace

Result<std::shared_ptr<const MappedCatalogEntry>> MappedCatalogEntry::Open(
    const std::string& path, CatalogVerify verify) {
  auto file = MappedFile::Open(path);
  if (!file.ok()) return file.status();

  // Construct in place behind the shared_ptr: the estimator's pointers and
  // spans reference members of THIS allocation, so nothing may move after
  // they are wired up.
  std::shared_ptr<MappedCatalogEntry> entry(new MappedCatalogEntry());
  entry->file_ = std::move(*file);

  auto parsed = internal::ParseCatalogV2(entry->file_.view(), verify);
  if (!parsed.ok()) return parsed.status();
  internal::CatalogV2View& view = *parsed;

  entry->ordering_name_ = std::move(view.ordering_name);
  entry->histogram_type_ = view.histogram_type;
  entry->labels_ = std::move(view.labels);
  entry->cards_ = std::move(view.cards);

  // ParseCatalogV2 validated the (|L|, k, domain) triple overflow-safely,
  // so the checked PathSpace arithmetic below cannot abort.
  RankingRule rule;
  if (SumRankingRuleForName(entry->ordering_name_, &rule)) {
    PathSpace space(entry->labels_.size(), view.k);
    LabelRanking ranking =
        LabelRanking::Make(rule, entry->labels_, entry->cards_);
    CompositionTable comps = CompositionTable::Borrowed(
        entry->labels_.size(), view.k, view.comp_counts, view.comp_prefix);
    SumStage3View index;
    index.scheme = view.sum_scheme;
    index.key_bits = view.sum_key_bits;
    index.cell_starts = view.cell_starts;
    index.keys = view.keys;
    index.offsets = view.offsets;
    index.nops = view.nops;
    entry->ordering_ = std::make_unique<SumBasedOrdering>(
        space, std::move(ranking), std::move(comps), index);
  } else {
    // Non-sum orderings are closed-form: nothing bulk to borrow, and the
    // stats factory rebuild costs microseconds.
    auto ordering = MakeOrderingFromStats(entry->ordering_name_,
                                          entry->labels_, entry->cards_,
                                          view.k);
    if (!ordering.ok()) return ordering.status();
    entry->ordering_ = std::move(*ordering);
  }

  FlatHistogram::Rows rows;
  rows.domain_size = view.domain_size;
  rows.begin = view.begin;
  rows.mean = view.mean;
  rows.prefix_sum = view.prefix;
  entry->estimator_.emplace(*entry->ordering_,
                            FlatHistogram::FromBorrowedRows(rows));

  // Owned-heap accounting: parsed metadata plus the ordering's small owned
  // tables (ranking bijections, factorials, cell directory). The bulk rows
  // are all spans into the mapping and deliberately absent here.
  size_t resident = sizeof(MappedCatalogEntry);
  for (size_t i = 0; i < entry->labels_.size(); ++i) {
    resident += entry->labels_.names()[i].size();
  }
  resident += entry->cards_.size() * sizeof(uint64_t);
  resident += entry->labels_.size() * (sizeof(uint32_t) + sizeof(LabelId));
  resident += static_cast<size_t>(view.k) * 2 * sizeof(uint64_t);
  resident += entry->estimator_->ResidentBytes();
  entry->resident_bytes_ = resident;

  // Estimates probe the rows in index order, not file order.
  entry->file_.Advise(MappedFile::Advice::kRandom);
  return std::shared_ptr<const MappedCatalogEntry>(std::move(entry));
}

}  // namespace pathest
