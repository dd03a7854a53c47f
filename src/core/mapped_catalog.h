// pathest: zero-copy estimator construction over a memory-mapped binary
// catalog v2 (core/serialize.h).
//
// A MappedCatalogEntry owns exactly one mapping (util/mmap_file.h) and the
// small OWNED metadata parsed out of it (label dictionary, cardinalities,
// ordering identity); the histogram's begin and sum rows stay IN the
// mapping, borrowed through Histogram::Borrow.
// The ordering is rebuilt from the metadata; a sum-family one takes its
// stage-2/3 tables from the process-wide registry (SumTables::For in
// ordering/sum_based.h), shared with every other ordering of the shape.
//
// Construction is therefore header authentication + (per the chosen
// CatalogVerify tier) checksums/scans + O(k) pointer fixup + at most one
// registry lookup — microseconds and O(1) allocations where the copying
// loader spends milliseconds copying the rows, with the row bytes
// themselves faulted lazily by the kernel. Only the first open of a shape
// no live ordering holds builds the tables (tens of microseconds at
// |L| = 6, k = 4; under a millisecond at the shapes the benches use).
//
// Lifetime: the entry is handed out as shared_ptr<const>; the mapping, the
// ordering, and the estimator all live and die together, so any estimate
// served from a copy of the pointer is safe for as long as that copy is
// held — CatalogCache (core/catalog_cache.h) relies on exactly this to
// evict entries that are still in flight elsewhere.

#ifndef PATHEST_CORE_MAPPED_CATALOG_H_
#define PATHEST_CORE_MAPPED_CATALOG_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "core/serialize.h"
#include "graph/graph.h"
#include "ordering/ordering.h"
#include "util/mmap_file.h"
#include "util/status.h"

namespace pathest {

/// \brief One mapped catalog v2 file, served zero-copy. Immutable after
/// Open; safe to share across any number of concurrent readers.
class MappedCatalogEntry {
 public:
  /// \brief Maps `path` and builds the borrowed estimator over it at
  /// verification tier `verify` (core/serialize.h — kChecksums is the
  /// cache's admission default; kTrusted is for bytes this process already
  /// verified this file generation and is UNSAFE on anything else).
  /// Fails (never aborts) on any malformed, truncated, corrupt, or
  /// non-v2 input.
  static Result<std::shared_ptr<const MappedCatalogEntry>> Open(
      const std::string& path, CatalogVerify verify);

  const Estimator& estimator() const { return *estimator_; }
  const LabelDictionary& labels() const { return labels_; }
  const std::vector<uint64_t>& label_cardinalities() const { return cards_; }
  const std::string& ordering_name() const { return ordering_name_; }
  HistogramType histogram_type() const { return histogram_type_; }

  const std::string& path() const { return file_.path(); }
  /// \brief Identity of the mapped generation (device, inode, size,
  /// mtime) — under the atomic-rename publish discipline a changed file is
  /// a changed id, which is how CatalogCache detects staleness.
  const FileId& file_id() const { return file_.id(); }

  /// \brief Bytes of the file mapping (budget currency of CatalogCache).
  size_t mapped_bytes() const { return file_.size(); }
  /// \brief Heap bytes OWNED by this entry: parsed metadata plus the
  /// ordering's small owned tables — everything NOT served from the
  /// mapping. The gap between this and mapped_bytes() is the zero-copy
  /// win, reported per entry by serve `stats`. A sum-family entry's
  /// stage-2/3 tables are not counted: the registry owns them, and every
  /// ordering of the same (|L|, k) shares one copy, so charging them to
  /// each entry would count them once per entry.
  size_t resident_bytes() const { return resident_bytes_; }

  MappedCatalogEntry(const MappedCatalogEntry&) = delete;
  MappedCatalogEntry& operator=(const MappedCatalogEntry&) = delete;

 private:
  MappedCatalogEntry() = default;

  MappedFile file_;
  std::string ordering_name_;
  HistogramType histogram_type_ = HistogramType::kEquiWidth;
  LabelDictionary labels_;
  std::vector<uint64_t> cards_;
  // The estimator holds a pointer into ordering_ and spans into file_ —
  // neither moves once Open returns (the entry lives behind shared_ptr).
  std::unique_ptr<Ordering> ordering_;
  std::optional<Estimator> estimator_;
  size_t resident_bytes_ = 0;
};

}  // namespace pathest

#endif  // PATHEST_CORE_MAPPED_CATALOG_H_
