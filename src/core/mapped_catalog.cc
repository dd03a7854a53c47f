#include "core/mapped_catalog.h"

#include <utility>

#include "core/serialize_internal.h"
#include "histogram/histogram.h"
#include "ordering/factory.h"

namespace pathest {

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

  // Closed-form orderings rebuild in microseconds; a sum-family one takes
  // its stage-2/3 tables from the shared registry (SumTables::For), so it
  // builds nothing while another ordering of its shape is alive.
  auto ordering = MakeOrderingFromStats(entry->ordering_name_, entry->labels_,
                                        entry->cards_, view.k);
  if (!ordering.ok()) return ordering.status();
  entry->ordering_ = std::move(*ordering);

  entry->estimator_.emplace(*entry->ordering_, Histogram::Borrow(view.rows));

  // Owned-heap accounting: parsed metadata plus the ordering's small owned
  // tables (ranking bijections, factorials, cell directory). The bulk rows
  // are spans into the mapping, and the sum family's stage-2/3 tables
  // belong to the registry; both are deliberately absent here.
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
