#include "core/catalog_cache.h"

#include <utility>

#include "util/mmap_file.h"

namespace pathest {

CatalogCache::CatalogCache(size_t byte_budget) : byte_budget_(byte_budget) {}

Result<std::shared_ptr<const MappedCatalogEntry>> CatalogCache::GetOrOpen(
    const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto id = StatFileId(path);
  auto it = slots_.find(path);
  if (it != slots_.end()) {
    if (id.ok() && it->second.entry->file_id() == *id) {
      ++hits_;
      it->second.last_use = ++clock_;
      return it->second.entry;
    }
    // The path no longer names these bytes (rewritten or removed): the
    // slot is stale either way. Pinned holders keep the old mapping alive.
    slots_.erase(it);
  }
  if (!id.ok()) return id.status();

  auto entry = MappedCatalogEntry::Open(path, CatalogVerify::kChecksums);
  if (!entry.ok()) return entry.status();
  ++misses_;
  slots_[path] = Slot{*entry, ++clock_};
  EvictLocked();
  return std::move(*entry);
}

bool CatalogCache::Invalidate(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.erase(path) > 0;
}

size_t CatalogCache::MappedTotalLocked() const {
  size_t total = 0;
  for (const auto& [path, slot] : slots_) {
    total += slot.entry->mapped_bytes();
  }
  return total;
}

void CatalogCache::EvictLocked() {
  size_t total = MappedTotalLocked();
  while (total > byte_budget_) {
    auto victim = slots_.end();
    for (auto it = slots_.begin(); it != slots_.end(); ++it) {
      // use_count() == 1 under mu_ means the cache holds the ONLY
      // reference: nothing can re-pin concurrently because every pin path
      // (GetOrOpen) also runs under mu_.
      if (it->second.entry.use_count() != 1) continue;
      if (victim == slots_.end() ||
          it->second.last_use < victim->second.last_use) {
        victim = it;
      }
    }
    if (victim == slots_.end()) break;  // everything left is pinned
    total -= victim->second.entry->mapped_bytes();
    slots_.erase(victim);
    ++evictions_;
  }
}

CatalogCacheStats CatalogCache::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CatalogCacheStats stats;
  stats.entries = slots_.size();
  stats.byte_budget = byte_budget_;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = evictions_;
  stats.per_entry.reserve(slots_.size());
  for (const auto& [path, slot] : slots_) {
    CatalogCacheEntryStats e;
    e.path = path;
    e.mapped_bytes = slot.entry->mapped_bytes();
    e.resident_bytes = slot.entry->resident_bytes();
    e.pinned = slot.entry.use_count() > 1;
    e.last_use = slot.last_use;
    stats.mapped_bytes += e.mapped_bytes;
    stats.per_entry.push_back(std::move(e));
  }
  return stats;
}

}  // namespace pathest
