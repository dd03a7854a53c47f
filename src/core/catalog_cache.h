// pathest: bounded-residency cache of mapped catalog snapshots
// (core/mapped_catalog.h).
//
// The serving reload path opens the SAME catalog files over and over —
// most reloads change one entry out of many. Re-mapping (and re-verifying)
// an unchanged file is pure waste, so the cache keys mappings by path and
// revalidates with a single stat(2): under the atomic-rename publish
// discipline an unchanged FileId (device, inode, size, mtime) proves the
// bytes are unchanged, and the reload re-pins the EXISTING mapping — a
// version swap without re-reading a byte.
//
// Admission verifies at CatalogVerify::kChecksums: every bulk byte is
// CRC'd once per file generation, which is what makes serving estimates
// off the mapping safe.
//
// Residency is bounded by a byte budget over mapped (not resident) bytes:
// when inserting pushes the total over budget, unpinned entries — those
// whose only reference is the cache's own — are evicted in LRU order.
// PINNED entries (shared_ptrs still held by serving snapshots or in-flight
// estimates) are NEVER evicted and may hold the total over budget; the
// budget squeezes the reclaimable tail only, so correctness never depends
// on the budget being generous.
//
// All operations are safe for concurrent callers (one mutex; the expensive
// Open runs under it by design — concurrent opens of the same file would
// each map it, and admission-time verification is the corruption gate, so
// serializing opens is both simpler and cheaper than duplicate mappings).

#ifndef PATHEST_CORE_CATALOG_CACHE_H_
#define PATHEST_CORE_CATALOG_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/mapped_catalog.h"
#include "core/serialize.h"
#include "util/status.h"

namespace pathest {

/// \brief Per-entry snapshot of cache state (serve `stats` reporting).
struct CatalogCacheEntryStats {
  std::string path;
  size_t mapped_bytes = 0;
  size_t resident_bytes = 0;
  /// True when references beyond the cache's own exist right now.
  bool pinned = false;
  /// Monotonic LRU clock value of the last GetOrOpen touch.
  uint64_t last_use = 0;
};

struct CatalogCacheStats {
  size_t entries = 0;
  size_t mapped_bytes = 0;
  size_t byte_budget = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  std::vector<CatalogCacheEntryStats> per_entry;
};

/// \brief Thread-safe LRU cache of MappedCatalogEntry by path.
class CatalogCache {
 public:
  /// \param byte_budget mapped-byte budget; 0 means "evict everything
  ///   unpinned eagerly".
  explicit CatalogCache(size_t byte_budget = 256ull << 20);

  /// \brief Returns the cached mapping for `path` if its FileId still
  /// matches the file on disk (a HIT — re-pin, no I/O beyond one stat);
  /// otherwise maps and verifies the current generation, replacing any
  /// stale entry (a MISS). Insertion may evict LRU unpinned entries to
  /// respect the budget. Errors (missing file, corrupt bytes, non-v2
  /// input) propagate and leave the cache unchanged except that a stale
  /// same-path entry is dropped (its bytes are gone from disk; pinned
  /// holders keep their mapping alive independently).
  Result<std::shared_ptr<const MappedCatalogEntry>> GetOrOpen(
      const std::string& path);

  /// \brief Drops the entry for `path` if present (regardless of budget);
  /// pinned holders keep the mapping alive. Returns true if found.
  bool Invalidate(const std::string& path);

  CatalogCacheStats Stats() const;

  size_t byte_budget() const { return byte_budget_; }

 private:
  struct Slot {
    std::shared_ptr<const MappedCatalogEntry> entry;
    uint64_t last_use = 0;
  };

  // Evicts LRU unpinned slots until the mapped total fits the budget or
  // nothing unpinned remains. Caller holds mu_.
  void EvictLocked();
  size_t MappedTotalLocked() const;

  const size_t byte_budget_;
  mutable std::mutex mu_;
  std::map<std::string, Slot> slots_;
  uint64_t clock_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace pathest

#endif  // PATHEST_CORE_CATALOG_CACHE_H_
