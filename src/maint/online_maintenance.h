// pathest: the online-maintenance state machine — owns everything under
// `<catalog_dir>/maint/` and turns journaled edge deltas into refreshed
// catalog entries the serve daemon republishes.
//
// On-disk state (all writes atomic or append+fsync):
//
//   <catalog_dir>/maint/base.graph     text graph, the compaction base
//   <catalog_dir>/maint/base.map       checksummed binary SelectivityMap of
//                                      base.graph at depth k
//   <catalog_dir>/maint/deltas.journal edge-delta WAL (delta_journal.h)
//   <catalog_dir>/*.stats              the served entries, re-persisted
//                                      as binary v2 after every refresh
//
// Invariant: base.map == ComputeSelectivities(base.graph, k), and the
// journal holds every acknowledged delta since base.graph. The current
// in-memory state is base ⊕ journal. Because replay is idempotent
// (set-semantics graph, last-op-wins per triple), compaction needs no
// cross-file transaction: publish base.graph, then base.map, then reset
// the journal — a crash between any two steps leaves a state whose
// recovery converges to the same (graph, map): already-folded records
// replay as no-ops, and a stale base.map is detected (it stamps the CRC
// of the exact base.graph bytes it was computed from) and falls back to
// a full bootstrap rebuild.
//
// Recovery (daemon startup): load or bootstrap the base, recover the
// journal (torn tails amputated — the expected crash artifact), replay
// its deltas through PatchGraph + IncrementalSelectivities, re-persist
// every entry, and hand the daemon a fresh-statistics catalog. A journal
// with MID-FILE corruption replays only its valid prefix (the records
// before the first bad frame), then is quarantined to
// `<journal>.quarantine` and the recovered state becomes the new base. A
// replay/rebuild failure quarantines the same way and serves the base
// state — degraded, observable in `stats`, never an outage.
//
// Entries are re-persisted as binary v2 (core/serialize.h), the format
// the daemon serves zero-copy from the mapping (core/catalog_cache.h),
// whatever format they started in.
//
// Threading: JournalDeltas and pending_count are internally synchronized
// (request workers call them concurrently).
// Recover / Refresh / Compact / QuarantineJournal mutate the graph+map
// state and must be serialized by the caller (the daemon runs them on its
// single maintenance thread). labels() and k() are immutable after
// Recover and safe from any thread.

#ifndef PATHEST_MAINT_ONLINE_MAINTENANCE_H_
#define PATHEST_MAINT_ONLINE_MAINTENANCE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "histogram/builders.h"
#include "maint/delta_journal.h"
#include "maint/incremental.h"
#include "path/selectivity.h"
#include "util/status.h"

namespace pathest {
namespace maint {

struct MaintenanceOptions {
  /// Catalog directory: entries at `<dir>/*.stats`, state at `<dir>/maint`.
  std::string catalog_dir;
  /// Bootstrap graph file. Required the first time (no base.graph yet);
  /// ignored once a base exists.
  std::string graph_path;
  /// Selectivity depth of the maintained map. 0 derives the maximum k over
  /// the healthy catalog entries; entries with a smaller k are rebuilt
  /// from a prefix of the map (the canonical layout nests spaces).
  size_t k = 0;
  /// Rebuild engine knobs (threads, pair guard).
  /// max_pairs_per_prefix must not shrink between builds of the same base.
  SelectivityOptions selectivity;
  /// Auto-compact when the journal holds at least this many records
  /// (0 = only explicit Compact calls).
  uint64_t compact_every_records = 4096;
};

/// \brief How one catalog entry is rebuilt from the maintained map
/// (recovered from the entry itself at startup — the .stats formats store
/// ordering name, histogram type, β, and k).
struct EntryConfig {
  std::string name;  ///< file stem, also the serving key
  std::string ordering;
  HistogramType histogram_type = HistogramType::kEquiWidth;
  size_t num_buckets = 0;
  size_t k = 0;
};

/// \brief What Recover found and did (surfaced through serve `stats`).
struct RecoveryReport {
  uint64_t replayed_records = 0;  ///< valid journal records replayed
  uint64_t replayed_edges = 0;    ///< edge records among them
  bool torn_tail_truncated = false;
  uint64_t torn_bytes = 0;
  bool bootstrapped_base = false;  ///< base.map rebuilt from scratch
  bool quarantined = false;        ///< journal moved aside
  /// Valid records before a mid-file corruption that were replayed
  /// (0 when the journal was healthy or its replay failed).
  uint64_t salvaged_records = 0;
  /// Bytes from the first bad frame to the end of a mid-file-corrupt
  /// journal, none of which were replayed.
  uint64_t lost_bytes = 0;
  std::string quarantine_path;
  std::string detail;  ///< human-readable quarantine / bootstrap reason
};

/// \brief One applied refresh batch.
struct RefreshOutcome {
  uint64_t applied_edges = 0;
  uint64_t epoch = 0;
  bool compacted = false;
  IncrementalStats incremental;
  std::vector<std::string> refreshed_entries;
};

class OnlineMaintenance {
 public:
  explicit OnlineMaintenance(MaintenanceOptions options);

  OnlineMaintenance(const OnlineMaintenance&) = delete;
  OnlineMaintenance& operator=(const OnlineMaintenance&) = delete;

  /// \brief Startup recovery (see file comment). Fails hard only when the
  /// BASE state is unusable (no graph, unreadable catalog dir); journal
  /// trouble degrades into `report->quarantined` instead.
  Status Recover(RecoveryReport* report);

  bool recovered() const { return recovered_; }

  /// \brief Durably journals `deltas` (one fsynced batch). OK means every
  /// record survived to disk and the batch MAY be acknowledged; the deltas
  /// join the pending set the next Refresh applies. Returns the batch's
  /// TICKET — the cumulative count of deltas journaled this process; the
  /// batch is applied once applied_ticket() reaches it. Thread-safe.
  Result<uint64_t> JournalDeltas(const std::vector<EdgeDelta>& deltas);

  /// \brief Applies every pending delta: patches the graph, incrementally
  /// rebuilds the map, re-persists every maintained entry, appends an
  /// epoch barrier, and auto-compacts past the journal threshold. On
  /// failure the in-memory state is unchanged and the caller should
  /// QuarantineJournal. Maintenance-thread only.
  Result<RefreshOutcome> Refresh();

  /// \brief Folds the current state into a new base (graph, then map,
  /// then journal reset — see the crash-safety argument in the file
  /// comment). Maintenance-thread only.
  Status Compact();

  /// \brief Moves the journal aside to `<journal>.quarantine` (dropping
  /// pending deltas) so the daemon keeps serving the last APPLIED state,
  /// then rebases: the current in-memory state becomes the new base and a
  /// fresh journal is opened, so nothing already applied is lost across a
  /// restart — only the pending records of the quarantined journal are.
  /// Returns the quarantine path. Maintenance-thread only.
  Result<std::string> QuarantineJournal(const std::string& reason);

  /// \brief Label dictionary updates resolve names against. Immutable
  /// after Recover; safe from any thread.
  const LabelDictionary& labels() const { return labels_; }
  size_t k() const { return k_; }
  /// \brief Entries being maintained (recovered at startup).
  const std::vector<EntryConfig>& entries() const { return entries_; }
  /// \brief Refresh epochs applied so far.
  uint64_t epoch() const { return epoch_; }
  /// \brief Deltas journaled but not yet applied. Thread-safe.
  size_t pending_count() const;
  /// \brief Cumulative deltas applied (or dropped by a quarantine) this
  /// process — compare against a JournalDeltas ticket to learn whether a
  /// batch has been resolved. Thread-safe.
  uint64_t applied_ticket() const {
    return applied_ticket_.load(std::memory_order_acquire);
  }
  /// \brief Current graph (maintenance-thread only; tests).
  const Graph& graph() const { return *graph_; }
  /// \brief Current map (maintenance-thread only; tests).
  const SelectivityMap& map() const { return *map_; }

  std::string MaintDir() const { return options_.catalog_dir + "/maint"; }
  std::string JournalPath() const { return MaintDir() + "/deltas.journal"; }
  std::string BaseGraphPath() const { return MaintDir() + "/base.graph"; }
  std::string BaseMapPath() const { return MaintDir() + "/base.map"; }

 private:
  Status DiscoverEntries();
  // Loads <maint>/base.graph (or bootstraps it from options.graph_path on
  // first run), canonicalized through WriteGraphText so the in-memory
  // graph is bit-identical to what a restart will reload. Sets
  // base_graph_crc_ to the CRC32C of the on-disk bytes.
  Status LoadOrBootstrapBaseGraph(std::unique_ptr<Graph>* base_graph);
  // Rebuilds every EntryConfig from (graph, map) and atomically persists
  // them to <catalog_dir>/<name>.stats as binary v2.
  Status PersistEntriesFor(const Graph& graph, const SelectivityMap& map,
                           std::vector<std::string>* refreshed);
  Status SaveBaseMap(const SelectivityMap& map);
  Result<SelectivityMap> LoadBaseMap();
  // Current state → base.graph, then base.map (stamped with the new
  // graph's CRC).
  Status SaveBase();
  // The shared tail of Compact and QuarantineJournal: SaveBase, journal
  // reset to a compaction marker, pending deltas re-journaled.
  Status RebaseAndResetJournal();

  MaintenanceOptions options_;
  bool recovered_ = false;
  size_t k_ = 0;
  LabelDictionary labels_;  // stable copy for cross-thread name resolution
  std::vector<EntryConfig> entries_;
  std::unique_ptr<Graph> graph_;
  std::unique_ptr<SelectivityMap> map_;
  uint32_t base_graph_crc_ = 0;  // CRC32C of the on-disk base.graph bytes
  uint64_t epoch_ = 0;

  mutable std::mutex journal_mu_;  // guards writer_, pending_, the tickets
  DeltaJournalWriter writer_;
  std::vector<EdgeDelta> pending_;
  uint64_t journal_records_ = 0;
  uint64_t journaled_ticket_ = 0;
  std::atomic<uint64_t> applied_ticket_{0};
};

/// \brief Copies the length <= `new_k` prefix of `map` into a map over
/// PathSpace(num_labels, new_k) — exact because the canonical layout nests
/// smaller spaces as prefixes. Requires new_k <= map.space().k().
SelectivityMap ShrinkMapToK(const SelectivityMap& map, size_t new_k);

}  // namespace maint
}  // namespace pathest

#endif  // PATHEST_MAINT_ONLINE_MAINTENANCE_H_
