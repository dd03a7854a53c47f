// pathest: the concurrent estimation service — `pathest_cli serve`.
//
// A long-running daemon that answers cardinality probes over a Unix-domain
// socket (protocol in serve/protocol.h) while its statistics are refreshed
// underneath it. The robustness contract, piece by piece:
//
//   * Atomic snapshot hot-swap. All serving state lives in a
//     SnapshotRegistry (serve/snapshot_registry.h): every request pins the
//     registry state with one atomic load and serves entirely from that
//     immutable snapshot, so a multi-path estimate is answered by exactly
//     one catalog version even if a reload publishes mid-request — and the
//     torture suite proves responses are bit-identical to a serial oracle
//     of some published version, never a torn mix.
//
//   * Degraded-mode reload, never an outage. `reload` re-walks the catalog
//     directory off the serving threads' critical path (it runs on the one
//     worker that took the request; estimates on other workers proceed,
//     lock-free, on the old state). Healthy entries swap in; a corrupt or
//     truncated entry is quarantined into a CatalogLoadReport and its
//     PREVIOUS snapshot keeps serving; a reload whose directory is
//     unreadable changes nothing. Concurrent reloads do not queue: the
//     loser gets a typed retriable Unavailable.
//
//   * Load shedding. Accepted connections enter a bounded queue consumed
//     by the worker pool (each worker owns one connection at a time, with
//     a per-connection RankScratch). When the queue is full the daemon
//     immediately answers "err ResourceExhausted retriable ..." and closes
//     after a short linger (so the error line survives the close) —
//     explicit backpressure instead of unbounded queueing.
//
//   * Deadlines. Every estimate carries a deadline (request option
//     deadline_ms, default ServeOptions::default_deadline_ms) enforced
//     between fixed-size batch chunks; expiry yields a typed retriable
//     DeadlineExceeded. Idle connections are reaped by a read timeout.
//
//   * Online maintenance (opt-in via ServeOptions::graph_path). `update`
//     appends edge deltas to a crash-safe fsynced journal
//     (maint/delta_journal.h) — acknowledged only once durable — and a
//     background maintenance thread applies them with an INCREMENTAL
//     statistics rebuild (maint/incremental.h, bit-identical to a full
//     rebuild), re-persists the catalog entries, and republishes through
//     the same atomic snapshot swap a reload uses. Startup replays the
//     journal, so no acknowledged update is ever lost to a crash; an
//     unusable journal is quarantined aside and the last good state keeps
//     serving (degraded, visible in `stats`).
//
//   * Graceful drain. RequestStop() (the `shutdown` command, or SIGTERM in
//     the CLI) stops the accept loop, lets every in-flight request finish
//     and be answered, answers queued-but-unserved connections with a
//     retriable Unavailable, and joins every thread. A dying client never
//     kills the daemon (MSG_NOSIGNAL + SIGPIPE ignored).
//
// Lifecycle: construct -> Start() -> [serve] -> RequestStop() -> Wait().
// The destructor performs RequestStop + Wait if still running. Start
// performs the initial catalog load with the same degraded-mode semantics
// as reload (corrupt entries quarantined, healthy ones serve).

#ifndef PATHEST_SERVE_SERVER_H_
#define PATHEST_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "maint/online_maintenance.h"
#include "ordering/ordering.h"
#include "serve/bounded_queue.h"
#include "serve/protocol.h"
#include "serve/snapshot_registry.h"
#include "serve/socket_io.h"

namespace pathest {
namespace serve {

struct ServeOptions {
  /// Filesystem path of the Unix-domain socket (<= 107 bytes).
  std::string socket_path;
  /// Catalog directory loaded at startup and targeted by a bare `reload`.
  std::string catalog_dir;
  /// Worker threads; each owns one connection at a time.
  size_t num_workers = 4;
  /// Bounded admission queue: accepted connections waiting for a worker.
  /// A full queue sheds (typed retriable error) instead of growing.
  size_t queue_capacity = 64;
  /// Deadline for requests that do not carry deadline_ms. 0 means requests
  /// expire immediately unless they override it (useful only in tests).
  uint64_t default_deadline_ms = 10000;
  /// Idle read timeout per connection; 0 disables reaping.
  uint64_t idle_timeout_ms = 30000;
  /// Enables the `slowop` test command (never in production).
  bool enable_test_commands = false;
  /// Bootstrap graph for online maintenance. Non-empty ENABLES the
  /// `update`/`compact` commands: Start() recovers the edge-delta journal
  /// under <catalog_dir>/maint (replaying acknowledged updates over the
  /// base snapshot) and spawns the maintenance thread. Empty (default)
  /// serves statically, exactly as before.
  std::string graph_path;
  /// Maintenance selectivity depth (0 = derive from the catalog entries).
  size_t maint_k = 0;
  /// Journal auto-compaction threshold (maint::MaintenanceOptions).
  uint64_t compact_every_records = 4096;
  /// Byte budget for the mmap snapshot cache (core/catalog_cache.h).
  /// Binary-v2 catalog entries are served zero-copy through this cache: a
  /// reload of an unchanged entry re-pins the existing mapping instead of
  /// re-reading bytes. Pinned (currently-serving) snapshots never count
  /// against eviction, so the budget bounds only UNPINNED residency.
  size_t mmap_cache_bytes = 256ull << 20;
};

/// \brief Monotonic counters exposed by `stats` (all atomics: written by
/// many workers, read by anyone).
struct ServeCounters {
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> connections_shed{0};
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> estimate_requests{0};
  std::atomic<uint64_t> paths_estimated{0};
  std::atomic<uint64_t> deadline_exceeded{0};
  std::atomic<uint64_t> invalid_requests{0};
  std::atomic<uint64_t> reloads{0};
  std::atomic<uint64_t> reload_conflicts{0};
  /// Online maintenance (all zero when serving statically).
  std::atomic<uint64_t> updates_journaled{0};
  std::atomic<uint64_t> journal_replayed_records{0};
  std::atomic<uint64_t> incremental_refreshes{0};
  std::atomic<uint64_t> quarantined_journals{0};
};

class ServeServer {
 public:
  explicit ServeServer(ServeOptions options);
  ~ServeServer();

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  /// \brief Loads the catalog (degraded mode allowed), binds the socket,
  /// and spawns the accept loop + worker pool. Fails only when the
  /// directory is unreadable or the socket cannot be bound.
  Status Start();

  /// \brief Begins a graceful drain (see file comment). Safe from any
  /// thread, including a worker handling `shutdown`; does NOT join.
  void RequestStop();

  /// \brief Joins every thread; idempotent. Returns once drained.
  void Wait();

  /// \brief True once RequestStop was called (drain begun).
  bool stop_requested() const {
    return stop_.load(std::memory_order_acquire);
  }

  const ServeOptions& options() const { return options_; }
  const ServeCounters& counters() const { return counters_; }
  /// \brief The initial catalog load's outcome (valid after Start).
  const CatalogLoadReport& initial_report() const { return initial_report_; }
  /// \brief Pins the current registry state (tests/benches).
  std::shared_ptr<const RegistryState> registry_state() const {
    return registry_.Get();
  }
  /// \brief The single-line JSON payload of the `stats` response.
  std::string StatsJson() const;
  /// \brief The maintenance engine, or nullptr when serving statically
  /// (tests poke recovery state through this).
  const maint::OnlineMaintenance* maintenance() const { return maint_.get(); }

 private:
  void AcceptLoop();
  void WorkerLoop(size_t worker);
  void MaintenanceLoop();
  void HandleConnection(UniqueFd conn, RankScratch& scratch);
  // Returns the response line (no terminator); sets *close_after for
  // requests that end the connection (shutdown).
  std::string HandleRequest(const std::string& line, RankScratch& scratch,
                            bool* close_after);
  std::string HandleEstimate(const Request& request, RankScratch& scratch);
  std::string HandleReload(const Request& request);
  std::string HandleUpdate(const Request& request);
  std::string HandleCompact();
  std::string HandleHealth();
  // The body of a reload against `dir`; caller holds reload_mu_.
  std::string ReloadLocked(const std::string& dir);
  // Runs one Refresh under maint_op_mu_, publishes the refreshed entries,
  // and wakes wait=1 update clients; quarantines the journal on failure.
  void RunRefresh();
  // notify_all on maint_cv_ after a change to state its waits read
  // (stop_, the applied ticket, the quarantine generation). That state
  // changes outside maint_mu_, so the notifier takes maint_mu_ first: a
  // waiter that checked its predicate before the change is then already
  // blocked and gets this wakeup instead of sleeping through it.
  void WakeMaintenanceWaiters();

  ServeOptions options_;
  SnapshotRegistry registry_;
  ServeCounters counters_;
  CatalogLoadReport initial_report_;
  // Bounded-residency mmap cache for binary-v2 entries (zero-copy path).
  // Declared before registry users touch it only through GetOrOpen/Stats,
  // both internally locked; safe from any thread.
  CatalogCache mmap_cache_;

  UniqueFd listen_fd_;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  BoundedQueue<UniqueFd> pending_;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  bool joined_ = false;
  std::mutex lifecycle_mu_;  // guards Wait()'s join against double-join

  std::mutex reload_mu_;          // at most one reload in flight
  mutable std::mutex report_mu_;  // guards the last_* JSON strings
  std::string last_reload_json_;
  std::string last_maintenance_json_;

  // Online maintenance (engaged only when options_.graph_path is set).
  // Workers call maint_->JournalDeltas concurrently (it locks internally);
  // state-mutating operations (Refresh, Compact, Quarantine) are
  // serialized by maint_op_mu_ between the maintenance thread and the
  // `compact` handler.
  std::unique_ptr<maint::OnlineMaintenance> maint_;
  std::thread maint_thread_;
  std::mutex maint_op_mu_;
  std::mutex maint_mu_;  // guards maint_work_ + the cv waits below
  std::condition_variable maint_cv_;
  bool maint_work_ = false;
  std::atomic<uint64_t> applied_epoch_{0};
  std::atomic<uint64_t> quarantine_generation_{0};
};

}  // namespace serve
}  // namespace pathest

#endif  // PATHEST_SERVE_SERVER_H_
