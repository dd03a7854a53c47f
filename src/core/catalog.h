// pathest: catalog directories — what counts as an entry, the graph-free
// integrity audit, and the report shape shared by every consumer.
//
// A catalog is a directory of `*.stats` entries, one persisted
// PathHistogram each (core/serialize.h). This module lists them, verifies
// them with degraded-mode semantics (a corrupt entry is quarantined into a
// report, the healthy rest still count), and renders that report as the
// one JSON shape `pathest_cli catalog verify --json` and the serve
// daemon's `stats` both print. Loading entries for serving is
// serve/snapshot_registry.h's job.

#ifndef PATHEST_CORE_CATALOG_H_
#define PATHEST_CORE_CATALOG_H_

#include <string>
#include <vector>

#include "util/status.h"

namespace pathest {

/// \brief One quarantined catalog entry: the file that failed, the binary
/// section implicated (when the loader could localize it; "" otherwise),
/// and the typed error.
struct CatalogLoadFailure {
  std::string path;
  std::string section;
  Status status;
};

/// \brief Builds a CatalogLoadFailure from a loader error, pulling the
/// implicated binary section out of the error message ("section <name>:
/// ..." — the binary loader's self-localizing prefix) when present.
CatalogLoadFailure MakeCatalogLoadFailure(std::string path, Status status);

/// \brief Per-entry detail for a verified catalog entry: its on-disk
/// format and, for binary v2, whether the 64-byte alignment rule held
/// (every section offset a multiple of 64, so every mapped row is 64-byte
/// aligned). Always true for a v2 entry that verified — the loader checks
/// every section offset at every tier; false for formats without the
/// invariant.
struct CatalogEntryInfo {
  std::string name;
  std::string format;  // "text" | "binary" | "binary-v2"
  bool aligned = false;
  uint32_t version = 0;  // a binary entry's header version; 0 for text
};

/// \brief Outcome of a degraded-mode catalog load: which entries serve and
/// which were quarantined (and why). A catalog with failures still serves
/// every healthy entry — one corrupt file must not take down the rest.
struct CatalogLoadReport {
  std::vector<std::string> loaded;  // healthy entry names (file stems)
  std::vector<CatalogLoadFailure> failures;
  /// Format detail per healthy entry, parallel to `loaded` (filled by
  /// VerifyCatalogDir; load paths that do not sniff leave it empty).
  std::vector<CatalogEntryInfo> entries;

  bool fully_healthy() const { return failures.empty(); }
};

/// \brief Checksum-walks every `*.stats` entry under `dir` (both formats:
/// binary entries verify every section CRC, text entries a full parse)
/// without needing a graph or an analyzed catalog — the integrity audit
/// behind `pathest_cli catalog verify`. NotFound if `dir` does not exist.
Result<CatalogLoadReport> VerifyCatalogDir(const std::string& dir);

/// \brief Sorted `<dir>/*.stats` paths — the one definition of "what is a
/// catalog entry" shared by VerifyCatalogDir, online maintenance, and the
/// serving reload path (serve/snapshot_registry.h). NotFound when
/// `dir` is not a directory; IOError when it cannot be walked.
Result<std::vector<std::string>> ListCatalogEntryPaths(const std::string& dir);

/// \brief Renders a CatalogLoadReport as one line of JSON — the single
/// machine-readable integrity report consumed by `pathest_cli catalog
/// verify --json`, the serve daemon's `stats` response, and external
/// tooling. Shape:
///   {"dir":..., "ok":N, "corrupt":M, "fully_healthy":bool,
///    "loaded":[name...],
///    "entries":[{"name":...,"format":...,"aligned":bool,"version":N}...],
///    "failures":[{"path":...,"section":...,"code":...,"error":...}...]}
std::string CatalogLoadReportToJson(const CatalogLoadReport& report,
                                    const std::string& dir);

/// \brief Escapes `s` for embedding inside a JSON string literal (quotes,
/// backslashes, control characters).
std::string JsonEscape(const std::string& s);

}  // namespace pathest

#endif  // PATHEST_CORE_CATALOG_H_
