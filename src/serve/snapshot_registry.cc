#include "serve/snapshot_registry.h"

#include <filesystem>
#include <utility>

namespace pathest {
namespace serve {

Result<SnapshotLoadResult> LoadCatalogSnapshots(const std::string& dir,
                                                uint64_t version,
                                                CatalogCache& mmap_cache) {
  auto entries = ListCatalogEntryPaths(dir);
  if (!entries.ok()) return entries.status();
  SnapshotLoadResult result;
  for (const std::string& path : *entries) {
    const std::string name = std::filesystem::path(path).stem().string();
    // Zero-copy path for v2: an unchanged file re-pins its cached mapping;
    // a changed one is mapped and admission-verified. Text and v1 entries
    // are deserialized into an owned copy. Either way a failure is
    // quarantined (path + implicated section + typed error) and the
    // remaining entries still become snapshots.
    auto format = SniffCatalogFile(path);
    if (!format.ok()) {
      result.report.failures.push_back(
          MakeCatalogLoadFailure(path, format.status()));
      continue;
    }
    std::shared_ptr<const ServingSnapshot> snapshot;
    if (*format == CatalogFormat::kBinaryV2) {
      auto mapped = mmap_cache.GetOrOpen(path);
      if (!mapped.ok()) {
        result.report.failures.push_back(
            MakeCatalogLoadFailure(path, mapped.status()));
        continue;
      }
      snapshot = std::make_shared<const ServingSnapshot>(
          name, std::move(*mapped), version);
    } else {
      auto loaded = LoadPathHistogram(path);
      if (!loaded.ok()) {
        result.report.failures.push_back(
            MakeCatalogLoadFailure(path, loaded.status()));
        continue;
      }
      snapshot = std::make_shared<const ServingSnapshot>(
          name, std::move(*loaded), version);
    }
    result.snapshots[name] = std::move(snapshot);
    result.report.loaded.push_back(name);
  }
  return result;
}

}  // namespace serve
}  // namespace pathest
