#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <filesystem>
#include <utility>

#include "path/label_path.h"
#include "util/safe_io.h"
#include "util/timer.h"

namespace pathest {
namespace serve {

namespace {

// How often blocking loops re-check the stop flag.
constexpr int kAcceptPollMs = 100;
constexpr uint64_t kSlowopSliceMs = 10;
// Paths estimated between deadline checks within one request.
constexpr size_t kDeadlineCheckStride = 64;
// listen(2) backlog.
constexpr int kListenBacklog = 128;

std::string BoolJson(bool b) { return b ? "true" : "false"; }

}  // namespace

ServeServer::ServeServer(ServeOptions options)
    : options_(std::move(options)),
      mmap_cache_(options_.mmap_cache_bytes),
      pending_(options_.queue_capacity) {}

ServeServer::~ServeServer() {
  RequestStop();
  Wait();
}

Status ServeServer::Start() {
  PATHEST_CHECK(!started_, "ServeServer::Start called twice");
  // A dying client must never kill the daemon: sends also use
  // MSG_NOSIGNAL, but third-party code (e.g. stdio on a closed pipe)
  // could still raise SIGPIPE without this.
  IgnoreSigpipeForProcess();

  // Maintenance recovery runs BEFORE the catalog load: replaying the
  // edge-delta journal re-persists the entries, so the snapshots loaded
  // below already include every acknowledged pre-crash update.
  if (!options_.graph_path.empty()) {
    maint::MaintenanceOptions mopts;
    mopts.catalog_dir = options_.catalog_dir;
    mopts.graph_path = options_.graph_path;
    mopts.k = options_.maint_k;
    mopts.compact_every_records = options_.compact_every_records;
    maint_ = std::make_unique<maint::OnlineMaintenance>(std::move(mopts));
    maint::RecoveryReport recovery;
    PATHEST_RETURN_NOT_OK(maint_->Recover(&recovery));
    counters_.journal_replayed_records.fetch_add(recovery.replayed_records,
                                                 std::memory_order_relaxed);
    if (recovery.quarantined) {
      counters_.quarantined_journals.fetch_add(1, std::memory_order_relaxed);
      quarantine_generation_.fetch_add(1, std::memory_order_relaxed);
    }
    applied_epoch_.store(maint_->epoch(), std::memory_order_release);
    std::string json = "{\"type\":\"recovery\"";
    json += ",\"replayed_records\":" +
            std::to_string(recovery.replayed_records);
    json += ",\"replayed_edges\":" + std::to_string(recovery.replayed_edges);
    json += ",\"torn_tail_truncated\":" +
            BoolJson(recovery.torn_tail_truncated);
    json += ",\"torn_bytes\":" + std::to_string(recovery.torn_bytes);
    json += ",\"bootstrapped_base\":" + BoolJson(recovery.bootstrapped_base);
    json += ",\"quarantined\":" + BoolJson(recovery.quarantined);
    json += ",\"salvaged_records\":" +
            std::to_string(recovery.salvaged_records);
    json += ",\"lost_bytes\":" + std::to_string(recovery.lost_bytes);
    json += ",\"detail\":\"" + JsonEscape(recovery.detail) + "\"}";
    {
      std::lock_guard<std::mutex> lock(report_mu_);
      last_maintenance_json_ = std::move(json);
    }
  }

  // Initial load, with reload's degraded-mode semantics: quarantined
  // entries are reported and the healthy remainder serves. Only an
  // unreadable directory is fatal — a daemon that can start degraded
  // beats one that refuses to start.
  auto loaded =
      LoadCatalogSnapshots(options_.catalog_dir, /*version=*/1, mmap_cache_);
  if (!loaded.ok()) return loaded.status();
  initial_report_ = std::move(loaded->report);
  auto state = std::make_shared<RegistryState>();
  state->entries = std::move(loaded->snapshots);
  state->version = 1;
  state->degraded = !initial_report_.fully_healthy();
  registry_.Publish(std::move(state));
  {
    std::lock_guard<std::mutex> lock(report_mu_);
    last_reload_json_ =
        CatalogLoadReportToJson(initial_report_, options_.catalog_dir);
  }

  auto listener =
      ListenUnixSocket(options_.socket_path, kListenBacklog);
  if (!listener.ok()) return listener.status();
  listen_fd_ = std::move(*listener);

  started_ = true;
  accept_thread_ = std::thread(&ServeServer::AcceptLoop, this);
  workers_.reserve(options_.num_workers);
  for (size_t w = 0; w < options_.num_workers; ++w) {
    workers_.emplace_back(&ServeServer::WorkerLoop, this, w);
  }
  if (maint_ != nullptr) {
    maint_thread_ = std::thread(&ServeServer::MaintenanceLoop, this);
  }
  return Status::OK();
}

void ServeServer::RequestStop() {
  stop_.store(true, std::memory_order_release);
  pending_.Stop();
  WakeMaintenanceWaiters();
}

void ServeServer::Wait() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (!started_ || joined_) return;
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  if (maint_thread_.joinable()) maint_thread_.join();
  listen_fd_.reset();
  ::unlink(options_.socket_path.c_str());
  joined_ = true;
}

void ServeServer::MaintenanceLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(maint_mu_);
      maint_cv_.wait(lock, [&] {
        return maint_work_ || stop_.load(std::memory_order_acquire);
      });
      if (stop_.load(std::memory_order_acquire)) break;
      maint_work_ = false;
    }
    RunRefresh();
  }
  // Drain: apply whatever is still pending so a graceful shutdown leaves
  // the catalog fresh. Best-effort — anything unapplied stays journaled
  // and replays on the next start.
  if (maint_->pending_count() > 0) RunRefresh();
  WakeMaintenanceWaiters();  // release any update wait=1 stragglers
}

void ServeServer::RunRefresh() {
  std::lock_guard<std::mutex> op_lock(maint_op_mu_);
  auto outcome = maint_->Refresh();
  std::string json;
  if (outcome.ok()) {
    if (outcome->applied_edges > 0) {
      counters_.incremental_refreshes.fetch_add(1, std::memory_order_relaxed);
      applied_epoch_.store(outcome->epoch, std::memory_order_release);
      // Republish through the same degraded-mode merge a reload uses.
      {
        std::lock_guard<std::mutex> reload_lock(reload_mu_);
        ReloadLocked(options_.catalog_dir);
      }
      json = "{\"type\":\"refresh\"";
      json += ",\"applied_edges\":" + std::to_string(outcome->applied_edges);
      json += ",\"epoch\":" + std::to_string(outcome->epoch);
      json += ",\"compacted\":" + BoolJson(outcome->compacted);
      json += ",\"touched_roots\":" +
              std::to_string(outcome->incremental.touched_roots);
      json += ",\"total_roots\":" +
              std::to_string(outcome->incremental.total_roots);
      json += ",\"dirty_tasks\":" +
              std::to_string(outcome->incremental.dirty_tasks);
      json += ",\"total_tasks\":" +
              std::to_string(outcome->incremental.total_tasks) + "}";
    }
  } else {
    // The pending batch cannot be applied (or persisted): quarantine the
    // journal and keep serving the last applied state.
    auto aside = maint_->QuarantineJournal(outcome.status().message());
    counters_.quarantined_journals.fetch_add(1, std::memory_order_relaxed);
    quarantine_generation_.fetch_add(1, std::memory_order_release);
    json = "{\"type\":\"quarantine\",\"error\":\"" +
           JsonEscape(outcome.status().message()) + "\"";
    if (aside.ok()) {
      json += ",\"quarantine_path\":\"" + JsonEscape(*aside) + "\"";
    }
    json += "}";
  }
  if (!json.empty()) {
    std::lock_guard<std::mutex> lock(report_mu_);
    last_maintenance_json_ = std::move(json);
  }
  WakeMaintenanceWaiters();  // wake update wait=1 clients
}

void ServeServer::WakeMaintenanceWaiters() {
  { std::lock_guard<std::mutex> lock(maint_mu_); }
  maint_cv_.notify_all();
}

void ServeServer::AcceptLoop() {
  // Shed connections linger briefly after the error is sent: closing the
  // fd while the client's (never-to-be-read) request sits in our receive
  // queue makes the kernel discard the buffered error line and hand the
  // client ECONNRESET instead. A short grace lets the client read the
  // typed error; the parked-fd count is capped so a shed storm cannot
  // hoard descriptors.
  struct ShedConn {
    UniqueFd fd;
    std::chrono::steady_clock::time_point close_at;
  };
  constexpr auto kShedLinger = std::chrono::milliseconds(250);
  constexpr size_t kMaxParked = 64;
  std::vector<ShedConn> parked;

  while (!stop_.load(std::memory_order_acquire)) {
    const auto now = std::chrono::steady_clock::now();
    std::erase_if(parked,
                  [&](const ShedConn& s) { return s.close_at <= now; });
    pollfd pfd{listen_fd_.get(), POLLIN, 0};
    const int rc = ::poll(&pfd, 1, kAcceptPollMs);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;  // listener is broken; drain what we have
    }
    if (rc == 0) continue;
    const int fd = ::accept4(listen_fd_.get(), nullptr, nullptr,
                             SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
          errno == ECONNABORTED) {
        continue;
      }
      break;
    }
    counters_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    UniqueFd conn(fd);
    if (!pending_.TryPush(std::move(conn))) {
      // TryPush moves only on success: conn still owns the fd here.
      counters_.connections_shed.fetch_add(1, std::memory_order_relaxed);
      SendAll(conn.get(),
              FormatErrorResponse(Status::ResourceExhausted(
                  "server overloaded: connection queue full, retry "
                  "later")) +
                  "\n");
      ::shutdown(conn.get(), SHUT_WR);
      if (parked.size() < kMaxParked) {
        parked.push_back(
            {std::move(conn), std::chrono::steady_clock::now() + kShedLinger});
      }
    }
  }
  // Parked fds close here; drained workers answer everything queued.
}

void ServeServer::WorkerLoop(size_t worker) {
  (void)worker;
  // The per-connection rank scratch: owned by the worker, re-warmed for
  // whichever entry each request targets, never shared across threads.
  RankScratch scratch;
  while (auto conn = pending_.Pop()) {
    HandleConnection(std::move(*conn), scratch);
  }
  // Pop returned nullopt: stopped AND drained (a stopped queue hands out
  // its remaining connections first, so queued clients get answered).
}

void ServeServer::HandleConnection(UniqueFd conn, RankScratch& scratch) {
  LineReader reader(conn.get(), options_.idle_timeout_ms, kMaxRequestBytes,
                    &stop_);
  std::string line;
  for (;;) {
    const ReadLineResult rc = reader.ReadLine(&line);
    switch (rc) {
      case ReadLineResult::kLine:
        break;
      case ReadLineResult::kOversized:
        counters_.invalid_requests.fetch_add(1, std::memory_order_relaxed);
        SendAll(conn.get(),
                FormatErrorResponse(Status::InvalidArgument(
                    "request line exceeds " +
                    std::to_string(kMaxRequestBytes) + " bytes")) +
                    "\n");
        return;
      case ReadLineResult::kStopped:
        // Drain: every request that had fully arrived was already served
        // (the reader returns buffered lines before reporting a stop);
        // tell a still-connected client why the connection is going away.
        SendAll(conn.get(),
                FormatErrorResponse(
                    Status::Unavailable("server draining, retry elsewhere "
                                        "or later")) +
                    "\n");
        return;
      case ReadLineResult::kEof:
      case ReadLineResult::kTimeout:
      case ReadLineResult::kError:
        return;
    }
    counters_.requests.fetch_add(1, std::memory_order_relaxed);
    bool close_after = false;
    const std::string response = HandleRequest(line, scratch, &close_after);
    if (!SendAll(conn.get(), response + "\n")) return;
    if (close_after) return;
  }
}

std::string ServeServer::HandleRequest(const std::string& line,
                                       RankScratch& scratch,
                                       bool* close_after) {
  auto request = ParseRequest(line);
  if (!request.ok()) {
    counters_.invalid_requests.fetch_add(1, std::memory_order_relaxed);
    return FormatErrorResponse(request.status());
  }
  const std::string& cmd = request->command;
  if (cmd == "estimate") return HandleEstimate(*request, scratch);
  if (cmd == "health") return HandleHealth();
  if (cmd == "stats") return "ok " + StatsJson();
  if (cmd == "reload") return HandleReload(*request);
  if (cmd == "update") return HandleUpdate(*request);
  if (cmd == "compact") return HandleCompact();
  if (cmd == "shutdown") {
    *close_after = true;
    RequestStop();
    return "ok draining";
  }
  if (cmd == "slowop" && options_.enable_test_commands) {
    auto ms = ParseU64Option("ms", request->Option("ms", "0"));
    if (!ms.ok()) return FormatErrorResponse(ms.status());
    // Sleeps in slices so a drain is never blocked behind a slowop.
    Timer timer;
    while (timer.ElapsedMillis() < static_cast<double>(*ms) &&
           !stop_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kSlowopSliceMs));
    }
    return "ok slept";
  }
  counters_.invalid_requests.fetch_add(1, std::memory_order_relaxed);
  return FormatErrorResponse(
      Status::InvalidArgument("unknown command '" + cmd + "'"));
}

std::string ServeServer::HandleEstimate(const Request& request,
                                        RankScratch& scratch) {
  uint64_t deadline_ms = options_.default_deadline_ms;
  const std::string_view deadline_opt = request.Option("deadline_ms", "\x01");
  if (deadline_opt != "\x01") {
    auto parsed = ParseU64Option("deadline_ms", deadline_opt);
    if (!parsed.ok()) {
      counters_.invalid_requests.fetch_add(1, std::memory_order_relaxed);
      return FormatErrorResponse(parsed.status());
    }
    deadline_ms = *parsed;
  }
  if (request.args.size() < 2) {
    counters_.invalid_requests.fetch_add(1, std::memory_order_relaxed);
    return FormatErrorResponse(Status::InvalidArgument(
        "estimate needs <entry> <path> [<path>...]"));
  }
  counters_.estimate_requests.fetch_add(1, std::memory_order_relaxed);

  Timer timer;
  // Pin ONE registry state for the whole request: every path below is
  // answered by the same catalog version even if a reload publishes now.
  auto state = registry_.Get();
  const auto it = state->entries.find(request.args[0]);
  if (it == state->entries.end()) {
    return FormatErrorResponse(
        Status::NotFound("no estimator named '" + request.args[0] + "'"));
  }
  const ServingSnapshot& snapshot = *it->second;
  const Estimator& estimator = snapshot.estimator();

  const size_t num_paths = request.args.size() - 1;
  std::string response = "ok";
  for (size_t i = 0; i < num_paths; ++i) {
    // Deadline enforcement between chunks: a request can exceed its
    // deadline by at most one stride of estimates (~microseconds), never
    // hold a worker unboundedly.
    if (i % kDeadlineCheckStride == 0 &&
        timer.ElapsedMillis() > static_cast<double>(deadline_ms)) {
      counters_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
      return FormatErrorResponse(Status::DeadlineExceeded(
          "deadline of " + std::to_string(deadline_ms) + " ms exceeded after " +
          std::to_string(i) + "/" + std::to_string(num_paths) + " paths"));
    }
    const std::string& text = request.args[i + 1];
    auto path = LabelPath::Parse(text, snapshot.labels());
    if (!path.ok()) {
      return FormatErrorResponse(Status::InvalidArgument(
          "bad path '" + text + "': " + path.status().message()));
    }
    if (!estimator.ordering().space().Contains(*path)) {
      return FormatErrorResponse(Status::InvalidArgument(
          "path '" + text + "' outside the analyzed space"));
    }
    response += ' ';
    AppendEstimateValue(&response, estimator.Estimate(*path, scratch));
  }
  counters_.paths_estimated.fetch_add(num_paths, std::memory_order_relaxed);
  return response;
}

std::string ServeServer::HandleReload(const Request& request) {
  const std::string dir(request.Option("dir", options_.catalog_dir));
  std::unique_lock<std::mutex> lock(reload_mu_, std::try_to_lock);
  if (!lock.owns_lock()) {
    counters_.reload_conflicts.fetch_add(1, std::memory_order_relaxed);
    return FormatErrorResponse(
        Status::Unavailable("reload already in progress"));
  }
  return ReloadLocked(dir);
}

std::string ServeServer::ReloadLocked(const std::string& dir) {
  const auto current = registry_.Get();
  const uint64_t next_version = current->version + 1;
  auto loaded = LoadCatalogSnapshots(dir, next_version, mmap_cache_);
  if (!loaded.ok()) {
    // The directory itself was unreadable: nothing is swapped, every
    // previous snapshot keeps serving, and the failure is recorded.
    CatalogLoadReport failure_report;
    failure_report.failures.push_back(
        MakeCatalogLoadFailure(dir, loaded.status()));
    {
      std::lock_guard<std::mutex> report_lock(report_mu_);
      last_reload_json_ = CatalogLoadReportToJson(failure_report, dir);
    }
    return FormatErrorResponse(
        Status(loaded.status().code(),
               "reload failed, previous snapshots kept serving: " +
                   loaded.status().message()));
  }

  auto next = std::make_shared<RegistryState>();
  next->version = next_version;
  next->entries = std::move(loaded->snapshots);
  // Degradation, never an outage: a quarantined entry keeps its PREVIOUS
  // snapshot when one exists. Entries whose file vanished entirely are
  // dropped (deliberate removal), which is what keeps a retired entry
  // from serving forever.
  size_t kept_stale = 0;
  for (const CatalogLoadFailure& failure : loaded->report.failures) {
    const std::string name =
        std::filesystem::path(failure.path).stem().string();
    const auto previous = current->entries.find(name);
    if (previous != current->entries.end()) {
      next->entries[name] = previous->second;
      ++kept_stale;
    }
  }
  size_t removed = 0;
  for (const auto& [name, snapshot] : current->entries) {
    if (next->entries.find(name) == next->entries.end()) ++removed;
  }
  next->degraded = !loaded->report.fully_healthy();
  const size_t serving = next->entries.size();
  const bool degraded = next->degraded;
  registry_.Publish(std::move(next));
  counters_.reloads.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> report_lock(report_mu_);
    last_reload_json_ = CatalogLoadReportToJson(loaded->report, dir);
  }

  return "ok loaded=" + std::to_string(loaded->report.loaded.size()) +
         " quarantined=" + std::to_string(loaded->report.failures.size()) +
         " kept_stale=" + std::to_string(kept_stale) +
         " removed=" + std::to_string(removed) +
         " serving=" + std::to_string(serving) +
         " degraded=" + std::to_string(degraded ? 1 : 0) +
         " version=" + std::to_string(next_version);
}

std::string ServeServer::HandleUpdate(const Request& request) {
  if (maint_ == nullptr) {
    counters_.invalid_requests.fetch_add(1, std::memory_order_relaxed);
    return FormatErrorResponse(Status::InvalidArgument(
        "updates disabled: daemon started without graph="));
  }
  if (request.args.empty() || request.args.size() % 4 != 0) {
    counters_.invalid_requests.fetch_add(1, std::memory_order_relaxed);
    return FormatErrorResponse(Status::InvalidArgument(
        "update needs (add|remove <src> <dst> <label>)+"));
  }
  std::vector<maint::EdgeDelta> deltas;
  deltas.reserve(request.args.size() / 4);
  for (size_t i = 0; i < request.args.size(); i += 4) {
    maint::EdgeDelta delta;
    const std::string& op = request.args[i];
    if (op == "add") {
      delta.add = true;
    } else if (op == "remove") {
      delta.add = false;
    } else {
      counters_.invalid_requests.fetch_add(1, std::memory_order_relaxed);
      return FormatErrorResponse(Status::InvalidArgument(
          "update op must be add or remove, got '" + op + "'"));
    }
    auto src = ParseU64Option("src", request.args[i + 1]);
    auto dst = ParseU64Option("dst", request.args[i + 2]);
    if (!src.ok() || !dst.ok()) {
      counters_.invalid_requests.fetch_add(1, std::memory_order_relaxed);
      return FormatErrorResponse((src.ok() ? dst : src).status());
    }
    if (*src > UINT32_MAX || *dst > UINT32_MAX) {
      counters_.invalid_requests.fetch_add(1, std::memory_order_relaxed);
      return FormatErrorResponse(
          Status::InvalidArgument("vertex id exceeds 32 bits"));
    }
    delta.src = static_cast<VertexId>(*src);
    delta.dst = static_cast<VertexId>(*dst);
    auto label = maint_->labels().Find(request.args[i + 3]);
    if (!label.ok()) {
      counters_.invalid_requests.fetch_add(1, std::memory_order_relaxed);
      return FormatErrorResponse(Status::NotFound(
          "unknown label '" + request.args[i + 3] +
          "' (new labels need an offline rebuild)"));
    }
    delta.label = *label;
    deltas.push_back(delta);
  }

  const uint64_t quarantine_before =
      quarantine_generation_.load(std::memory_order_acquire);
  auto ticket = maint_->JournalDeltas(deltas);
  if (!ticket.ok()) {
    // The journal could not be made durable — the one update error a
    // client may NOT assume was applied. Retriable: replay is idempotent.
    return FormatErrorResponse(Status(
        StatusCode::kUnavailable,
        "update not journaled: " + ticket.status().message()));
  }
  counters_.updates_journaled.fetch_add(deltas.size(),
                                        std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(maint_mu_);
    maint_work_ = true;
  }
  maint_cv_.notify_all();

  if (request.Option("wait") != "1") {
    return "ok journaled=" + std::to_string(deltas.size()) +
           " pending=" + std::to_string(maint_->pending_count());
  }
  // wait=1: block until the batch is applied (ticket reached), dropped by
  // a quarantine, or the daemon drains. Safe to retry after any error:
  // applying an already-applied delta is a no-op.
  std::unique_lock<std::mutex> lock(maint_mu_);
  maint_cv_.wait(lock, [&] {
    return maint_->applied_ticket() >= *ticket ||
           quarantine_generation_.load(std::memory_order_acquire) !=
               quarantine_before ||
           stop_.load(std::memory_order_acquire);
  });
  if (maint_->applied_ticket() >= *ticket &&
      quarantine_generation_.load(std::memory_order_acquire) ==
          quarantine_before) {
    return "ok applied=" + std::to_string(deltas.size()) +
           " epoch=" +
           std::to_string(applied_epoch_.load(std::memory_order_acquire));
  }
  if (quarantine_generation_.load(std::memory_order_acquire) !=
      quarantine_before) {
    return FormatErrorResponse(Status::Unavailable(
        "journal quarantined before the update applied"));
  }
  return FormatErrorResponse(Status::Unavailable(
      "draining before the update applied (journaled; replays on restart)"));
}

std::string ServeServer::HandleCompact() {
  if (maint_ == nullptr) {
    counters_.invalid_requests.fetch_add(1, std::memory_order_relaxed);
    return FormatErrorResponse(Status::InvalidArgument(
        "compaction disabled: daemon started without graph="));
  }
  std::lock_guard<std::mutex> op_lock(maint_op_mu_);
  Status st = maint_->Compact();
  if (!st.ok()) return FormatErrorResponse(st);
  return "ok compacted epoch=" +
         std::to_string(applied_epoch_.load(std::memory_order_acquire));
}

std::string ServeServer::HandleHealth() {
  const auto state = registry_.Get();
  return "ok serving entries=" + std::to_string(state->entries.size()) +
         " degraded=" + std::to_string(state->degraded ? 1 : 0) +
         " version=" + std::to_string(state->version);
}

std::string ServeServer::StatsJson() const {
  const auto state = registry_.Get();
  std::string out = "{\"version\":" + std::to_string(state->version);
  out += ",\"degraded\":" + BoolJson(state->degraded);
  out += ",\"entries\":[";
  bool first = true;
  const auto now = std::chrono::steady_clock::now();
  for (const auto& [name, snapshot] : state->entries) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"" + JsonEscape(name) + "\"";
    out += ",\"version\":" + std::to_string(snapshot->version());
    // Age since the snapshot was BUILT: a kept_stale entry (version older
    // than the registry's) shows how long its statistics have been stale.
    const auto age = std::chrono::duration_cast<std::chrono::seconds>(
        now - snapshot->created());
    out += ",\"age_s\":" + std::to_string(age.count());
    out += ",\"stale\":" + BoolJson(snapshot->version() < state->version);
    out += ",\"mapped\":" + BoolJson(snapshot->is_mapped());
    out += ",\"mapped_bytes\":" + std::to_string(snapshot->mapped_bytes());
    out += ",\"resident_bytes\":" + std::to_string(snapshot->resident_bytes());
    out += "}";
  }
  out += "],\"counters\":{";
  const ServeCounters& c = counters_;
  out += "\"connections_accepted\":" +
         std::to_string(c.connections_accepted.load(std::memory_order_relaxed));
  out += ",\"connections_shed\":" +
         std::to_string(c.connections_shed.load(std::memory_order_relaxed));
  out += ",\"requests\":" +
         std::to_string(c.requests.load(std::memory_order_relaxed));
  out += ",\"estimate_requests\":" +
         std::to_string(c.estimate_requests.load(std::memory_order_relaxed));
  out += ",\"paths_estimated\":" +
         std::to_string(c.paths_estimated.load(std::memory_order_relaxed));
  out += ",\"deadline_exceeded\":" +
         std::to_string(c.deadline_exceeded.load(std::memory_order_relaxed));
  out += ",\"invalid_requests\":" +
         std::to_string(c.invalid_requests.load(std::memory_order_relaxed));
  out += ",\"reloads\":" +
         std::to_string(c.reloads.load(std::memory_order_relaxed));
  out += ",\"reload_conflicts\":" +
         std::to_string(c.reload_conflicts.load(std::memory_order_relaxed));
  out += ",\"updates_journaled\":" +
         std::to_string(c.updates_journaled.load(std::memory_order_relaxed));
  out += ",\"journal_replayed_records\":" +
         std::to_string(
             c.journal_replayed_records.load(std::memory_order_relaxed));
  out += ",\"incremental_refreshes\":" +
         std::to_string(
             c.incremental_refreshes.load(std::memory_order_relaxed));
  out += ",\"quarantined_journals\":" +
         std::to_string(
             c.quarantined_journals.load(std::memory_order_relaxed));
  out += "},\"mmap_cache\":{";
  {
    const CatalogCacheStats cache = mmap_cache_.Stats();
    out += "\"entries\":" + std::to_string(cache.entries);
    out += ",\"mapped_bytes\":" + std::to_string(cache.mapped_bytes);
    out += ",\"byte_budget\":" + std::to_string(cache.byte_budget);
    out += ",\"hits\":" + std::to_string(cache.hits);
    out += ",\"misses\":" + std::to_string(cache.misses);
    out += ",\"evictions\":" + std::to_string(cache.evictions);
  }
  out += "},\"maintenance\":";
  if (maint_ == nullptr) {
    out += "{\"enabled\":false}";
  } else {
    out += "{\"enabled\":true";
    out += ",\"applied_epoch\":" +
           std::to_string(applied_epoch_.load(std::memory_order_acquire));
    out += ",\"pending\":" + std::to_string(maint_->pending_count());
    out += ",\"last_event\":";
    {
      std::lock_guard<std::mutex> lock(report_mu_);
      out += last_maintenance_json_.empty() ? "null" : last_maintenance_json_;
    }
    out += "}";
  }
  out += ",\"last_reload\":";
  {
    std::lock_guard<std::mutex> lock(report_mu_);
    out += last_reload_json_.empty() ? "null" : last_reload_json_;
  }
  out += "}";
  return out;
}

}  // namespace serve
}  // namespace pathest
