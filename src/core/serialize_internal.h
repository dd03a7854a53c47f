// pathest: the shared binary-catalog-v2 parse layer.
//
// ParseCatalogV2 is the ONE implementation of "open a v2 byte image":
// header + section-table authentication, section placement (64-byte
// aligned, ascending, non-overlapping), metadata parsing, shape validation
// of the bulk sections, and the tiered bulk verification of
// core/serialize.h's CatalogVerify. Its product is a
// CatalogV2View — owned metadata plus spans into the caller's bytes for
// every bulk row — from which the copying loader builds an owned estimator
// (ReadPathHistogramBinaryV2) and the mmap tier builds a borrowed one
// (core/mapped_catalog.h). Internal header: not installed, no stability
// promise.

#ifndef PATHEST_CORE_SERIALIZE_INTERNAL_H_
#define PATHEST_CORE_SERIALIZE_INTERNAL_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/serialize.h"
#include "graph/graph.h"
#include "histogram/builders.h"
#include "util/status.h"

namespace pathest {
namespace internal {

/// \brief Everything a v2 file holds, parsed and (per the requested tier)
/// verified. Metadata is owned; bulk rows are spans into the input bytes,
/// valid only while that buffer (or mapping) lives.
struct CatalogV2View {
  // Header format version: kVersionV2 or a legacy version
  // (kVersionV2MeanRows, kVersionV2SumSections, kVersionV2Eytzinger).
  uint32_t version = 0;
  // Section 1: ordering identity.
  std::string ordering_name;
  HistogramType histogram_type = HistogramType::kEquiWidth;
  uint64_t k = 0;
  // Sections 2-3.
  LabelDictionary labels;
  std::vector<uint64_t> cards;

  // Section 4: shape prolog + the rows every version has (begin and sum
  // serve; sumsq is diagnostic). Bucket b ends at begin[b + 1], the last
  // one at domain_size.
  uint64_t beta = 0;
  uint64_t domain_size = 0;
  std::span<const uint64_t> begin;
  std::span<const double> sum, sumsq;

  // The Histogram the rows describe, rebuilt at kFull (empty at the lower
  // tiers).
  std::optional<Histogram> histogram;
};

/// \brief Parses + verifies a v2 byte image at tier `verify` (see
/// CatalogVerify in core/serialize.h for exactly what each tier checks).
/// `bytes.data()` must be 8-byte aligned — true of every heap buffer and
/// every mmap base; the 64-byte aligned section offsets then make all row
/// spans naturally aligned. Never throws, never allocates from untrusted
/// counts, never reads out of bounds: corruption is a typed Status.
Result<CatalogV2View> ParseCatalogV2(std::string_view bytes,
                                     CatalogVerify verify);

}  // namespace internal
}  // namespace pathest

#endif  // PATHEST_CORE_SERIALIZE_INTERNAL_H_
