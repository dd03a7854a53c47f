// pathest: the shared binary-catalog-v2 parse layer.
//
// ParseCatalogV2 is the ONE implementation of "open a v2 byte image":
// header + section-table authentication, page-alignment enforcement,
// metadata parsing, shape validation of the bulk sections, and the tiered
// bulk verification of core/serialize.h's CatalogVerify. Its product is a
// CatalogV2View — owned metadata plus spans into the caller's bytes for
// every bulk row — from which the copying loader builds an owned estimator
// (ReadPathHistogramBinaryV2) and the mmap tier builds a borrowed one
// (core/mapped_catalog.h). Internal header: not installed, no stability
// promise.

#ifndef PATHEST_CORE_SERIALIZE_INTERNAL_H_
#define PATHEST_CORE_SERIALIZE_INTERNAL_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/serialize.h"
#include "graph/graph.h"
#include "histogram/builders.h"
#include "ordering/sum_based.h"
#include "util/status.h"

namespace pathest {
namespace internal {

/// \brief Everything a v2 file holds, parsed and (per the requested tier)
/// verified. Metadata is owned; bulk rows are spans into the input bytes,
/// valid only while that buffer (or mapping) lives.
struct CatalogV2View {
  // Section 1: ordering identity.
  std::string ordering_name;
  HistogramType histogram_type = HistogramType::kEquiWidth;
  uint64_t k = 0;
  // Sections 2-3.
  LabelDictionary labels;
  std::vector<uint64_t> cards;

  // Section 4: shape prolog + diagnostic and serving rows.
  uint64_t beta = 0;
  uint64_t domain_size = 0;
  std::span<const uint64_t> begin, end, sum_bits, sumsq_bits;
  std::span<const double> mean, prefix;
  std::span<const uint64_t> eytz_begin;
  std::span<const uint32_t> eytz_rank;

  // Sections 5-6, present iff the ordering is of the sum family.
  bool has_sum_sections = false;
  std::span<const uint64_t> comp_counts, comp_prefix;
  SumKeyScheme sum_scheme = SumKeyScheme::kCounts;
  uint32_t sum_key_bits = 0;
  std::span<const uint64_t> cell_starts, keys, offsets, nops;
};

/// \brief Parses + verifies a v2 byte image at tier `verify` (see
/// CatalogVerify in core/serialize.h for exactly what each tier checks).
/// `bytes.data()` must be 8-byte aligned — true of every heap buffer and
/// every mmap base; the page-aligned section offsets then make all row
/// spans naturally aligned. Never throws, never allocates from untrusted
/// counts, never reads out of bounds: corruption is a typed Status.
Result<CatalogV2View> ParseCatalogV2(std::string_view bytes,
                                     CatalogVerify verify);

}  // namespace internal
}  // namespace pathest

#endif  // PATHEST_CORE_SERIALIZE_INTERNAL_H_
