// pathest: versioned, immutable serving snapshots with atomic hot-swap —
// the state layer of the estimation service (serve/server.h).
//
// The serving idiom (after ytsaurus' tablet/Hydra snapshot machinery):
// readers never block writers and writers never block readers, because the
// whole registry state is ONE immutable value behind an atomic pointer.
//
//   * A ServingSnapshot is one catalog entry frozen for serving: the
//     deserialized PathHistogram (which owns the label dictionary the
//     entry's queries parse against) plus the Estimator fast-path facade
//     built over it. Snapshots are immutable after construction and shared
//     as shared_ptr<const ServingSnapshot>; a reader that pinned one keeps
//     it alive across any number of concurrent swaps.
//
//   * SnapshotRegistry holds shared_ptr<const RegistryState> (an immutable
//     name -> snapshot map) behind std::atomic. Readers do one atomic
//     shared_ptr load per request and then work on plain immutable data —
//     no registry lock is held while estimating. Publishing builds a fresh
//     RegistryState aside and swaps the pointer; in-flight requests finish
//     on whichever state they pinned. (libstdc++'s atomic<shared_ptr> uses
//     a tiny internal spinlock around the refcount handoff; readers still
//     never wait on a reload in progress, which is the property that
//     matters here.)
//
//   * LoadCatalogSnapshots is the reload path: it walks a catalog
//     directory with the same verify-and-quarantine semantics as
//     VerifyCatalogDir (core/catalog.h) in a single pass, building a
//     replacement snapshot per healthy entry and a CatalogLoadReport
//     naming every corrupt one. The caller (the server's
//     reload handler) then merges: healthy entries swap in, corrupt
//     entries KEEP their previous snapshot (degraded serving, not an
//     outage), entries whose file vanished are dropped.
//
// Thread safety: Get() and Publish() are safe from any thread. The
// merge-and-publish sequence in the server is serialized by the server's
// reload mutex — the registry itself never needs one.

#ifndef PATHEST_SERVE_SNAPSHOT_REGISTRY_H_
#define PATHEST_SERVE_SNAPSHOT_REGISTRY_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "core/catalog.h"
#include "core/catalog_cache.h"
#include "core/estimator.h"
#include "core/mapped_catalog.h"
#include "core/serialize.h"
#include "util/status.h"

// Under ThreadSanitizer, swap the lock-free atomic<shared_ptr> state
// holder for a mutex-guarded one: libstdc++ 12's _Sp_atomic guards its
// raw pointer with a spinlock bit TSan cannot model (no _GLIBCXX_TSAN
// annotations until later releases), so every Publish/Get pair reports a
// false race in library internals and drowns out the real signal — OUR
// publish/pin protocol, which is what the TSan job is there to check.
#if defined(__SANITIZE_THREAD__)
#define PATHEST_SERVE_TSAN_REGISTRY 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PATHEST_SERVE_TSAN_REGISTRY 1
#endif
#endif
#ifdef PATHEST_SERVE_TSAN_REGISTRY
#include <mutex>
#endif

namespace pathest {
namespace serve {

/// \brief One catalog entry frozen for concurrent serving. Two storage
/// forms behind the same accessors: COPIED (a deserialized
/// LoadedPathHistogram owning every row) and MAPPED (a pinned
/// MappedCatalogEntry serving the rows straight out of an mmap'ed binary
/// catalog v2 — the pin keeps the mapping alive across cache evictions).
class ServingSnapshot {
 public:
  /// \param name entry name (the file stem).
  /// \param loaded the deserialized estimator state; moved in. The
  ///   Estimator facade is built against the histogram at its FINAL
  ///   address inside this object (member-init order: loaded_ first).
  /// \param version registry version that installed this snapshot.
  ServingSnapshot(std::string name, LoadedPathHistogram loaded,
                  uint64_t version)
      : name_(std::move(name)),
        loaded_(std::move(loaded)),
        version_(version),
        created_(std::chrono::steady_clock::now()) {
    serving_.emplace(loaded_->estimator);
  }

  /// \brief Mapped form: serves through the entry's borrowed estimator;
  /// the shared_ptr pin is what keeps the mapping resident while ANY
  /// reader might still be estimating from it.
  ServingSnapshot(std::string name,
                  std::shared_ptr<const MappedCatalogEntry> mapped,
                  uint64_t version)
      : name_(std::move(name)),
        mapped_(std::move(mapped)),
        version_(version),
        created_(std::chrono::steady_clock::now()) {}

  ServingSnapshot(const ServingSnapshot&) = delete;
  ServingSnapshot& operator=(const ServingSnapshot&) = delete;

  const std::string& name() const { return name_; }
  uint64_t version() const { return version_; }
  /// \brief When this snapshot was built. A reload that keeps a stale
  /// snapshot keeps its original timestamp, so `stats` can report how old
  /// a kept_stale entry's statistics are.
  std::chrono::steady_clock::time_point created() const { return created_; }
  /// \brief The label dictionary request paths parse against.
  const LabelDictionary& labels() const {
    return mapped_ ? mapped_->labels() : loaded_->labels;
  }
  /// \brief The immutable fast-path serving facade (thread-safe for any
  /// number of concurrent readers, each with its own RankScratch).
  const Estimator& estimator() const {
    return mapped_ ? mapped_->estimator() : *serving_;
  }

  /// \brief True when this snapshot serves from an mmap'ed catalog v2.
  bool is_mapped() const { return mapped_ != nullptr; }
  /// \brief Bytes of the backing mapping (0 for the copied form).
  size_t mapped_bytes() const {
    return mapped_ ? mapped_->mapped_bytes() : 0;
  }
  /// \brief Heap bytes this snapshot owns: the full deserialized rows for
  /// the copied form, only parsed metadata for the mapped form — the gap
  /// is the zero-copy win `stats` reports per entry.
  size_t resident_bytes() const {
    return mapped_ ? mapped_->resident_bytes()
                   : serving_->ResidentBytes();
  }

 private:
  std::string name_;
  // Exactly one of loaded_/mapped_ is engaged (the storage form).
  std::optional<LoadedPathHistogram> loaded_;
  std::shared_ptr<const MappedCatalogEntry> mapped_;
  uint64_t version_;
  std::chrono::steady_clock::time_point created_;
  std::optional<Estimator> serving_;  // copied form only; borrows loaded_
};

/// \brief Immutable registry state: entry name -> snapshot, plus the
/// version that published it. Never mutated after Publish.
struct RegistryState {
  std::map<std::string, std::shared_ptr<const ServingSnapshot>> entries;
  uint64_t version = 0;
  /// True when the last reload quarantined at least one entry (some
  /// snapshots may be stale) — surfaced by health/stats.
  bool degraded = false;
};

/// \brief Atomic holder of the current RegistryState.
class SnapshotRegistry {
 public:
  SnapshotRegistry() : state_(std::make_shared<const RegistryState>()) {}

#ifndef PATHEST_SERVE_TSAN_REGISTRY
  /// \brief Pins the current state: one atomic load, then plain reads.
  std::shared_ptr<const RegistryState> Get() const {
    return state_.load(std::memory_order_acquire);
  }

  /// \brief Atomically swaps in `next`. In-flight readers keep the state
  /// they pinned; new requests see `next`.
  void Publish(std::shared_ptr<const RegistryState> next) {
    state_.store(std::move(next), std::memory_order_release);
  }

 private:
  std::atomic<std::shared_ptr<const RegistryState>> state_;
#else
  // TSan build: same semantics, but the pointer handoff is a mutex held
  // only for the shared_ptr copy/swap — a model TSan understands (see the
  // include comment above). Never compiled into production binaries.
  std::shared_ptr<const RegistryState> Get() const {
    std::lock_guard<std::mutex> lock(state_mu_);
    return state_;
  }

  void Publish(std::shared_ptr<const RegistryState> next) {
    std::lock_guard<std::mutex> lock(state_mu_);
    state_ = std::move(next);
  }

 private:
  mutable std::mutex state_mu_;
  std::shared_ptr<const RegistryState> state_;
#endif
};

/// \brief Result of walking a catalog directory for serving.
struct SnapshotLoadResult {
  /// One snapshot per healthy entry, keyed by entry name (file stem).
  std::map<std::string, std::shared_ptr<const ServingSnapshot>> snapshots;
  /// Verify walk outcome: healthy entry names + quarantined failures.
  CatalogLoadReport report;
};

/// \brief Verifies and loads every `<dir>/*.stats` entry into serving
/// snapshots stamped with `version`. Per-entry corruption quarantines that
/// entry into the report (checksum/parse failures — the same contract as
/// VerifyCatalogDir) and the rest still load; only an unreadable directory
/// fails the whole call.
///
/// Binary-v2 entries are served ZERO-COPY through `mmap_cache`: an
/// unchanged file re-pins its existing mapping (no bytes re-read, no
/// re-verification), a changed one is mapped and admission-verified. A v2
/// entry the cache rejects is quarantined exactly like a corrupt copied
/// entry. Text and v1 entries take the copying path.
Result<SnapshotLoadResult> LoadCatalogSnapshots(const std::string& dir,
                                                uint64_t version,
                                                CatalogCache& mmap_cache);

}  // namespace serve
}  // namespace pathest

#endif  // PATHEST_SERVE_SNAPSHOT_REGISTRY_H_
