// pathest: the shared parse layer of the catalog readers.
//
// Binary catalogs v1 and v2 are one container: a 32-byte header and a
// section table, then the section payloads (core/serialize.h has the
// bytes). serialize.cc parses that container in ONE frame parser —
// magic, header CRC, version window, the section table (CRC, ascending
// known ids, extents inside the file, aligned and non-overlapping), the
// required sections, and the metadata sections 1-3, each CRC-checked
// before it is parsed. The formats differ only by four constants the
// caller passes in (magic, accepted versions, highest section id, section
// alignment). Every reader — text included — yields the metadata as a
// CatalogMetadata.
//
// ParseCatalogV2 is the v2 reader built on the frame: the shape of the
// histogram section, the legacy section rules, and the tiered bulk
// verification of core/serialize.h's CatalogVerify. Its product is a
// CatalogV2View — owned metadata plus spans into the caller's bytes for
// the begin and sum rows — whose rows the copying loader
// (DecodeCatalog) copies into an owned Histogram and the mmap tier borrows
// (core/mapped_catalog.h). Internal header: not installed, no stability
// promise.

#ifndef PATHEST_CORE_SERIALIZE_INTERNAL_H_
#define PATHEST_CORE_SERIALIZE_INTERNAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/serialize.h"
#include "graph/graph.h"
#include "histogram/builders.h"
#include "util/status.h"

namespace pathest {
namespace internal {

/// \brief The estimator's identity: binary sections 1-3, or the text
/// format's header lines.
struct CatalogMetadata {
  // Section 1: ordering identity.
  std::string ordering_name;
  HistogramType histogram_type = HistogramType::kEquiWidth;
  uint64_t k = 0;
  // Sections 2-3.
  LabelDictionary labels;
  std::vector<uint64_t> cards;
};

/// \brief Everything a v2 file holds, parsed and (per the requested tier)
/// verified. Metadata is owned; bulk rows are spans into the input bytes,
/// valid only while that buffer (or mapping) lives.
struct CatalogV2View : CatalogMetadata {
  // Section 4: the domain size and the two rows every version has and
  // serves. Bucket b ends at begin[b + 1], the last one at domain_size.
  Histogram::Rows rows;
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
