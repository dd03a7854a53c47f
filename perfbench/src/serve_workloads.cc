// The `serve_read` and `serve_update` workloads: an in-process ServeServer
// (4 workers) serving a binary-v2 catalog of the five paper orderings
// (moreno-like, k = 4, V-optimal β = 64), loaded by a closed loop of 2
// reader connections. Every request names one entry, chosen Zipf(1.0)
// over the five, and carries the 10 contiguous sub-paths of one random
// length-4 label path: the probes an optimizer makes to cost one path
// query. The request shape is fixed so latency has one mode.
//
// serve_update starts the same daemon with graph= (online maintenance,
// compaction every 256 journal records) and adds one writer connection
// sending `update wait=1` batches of 2 random adds and 2 removes of
// present edges in an open loop at 5 batches/s, each timed from its due
// time. serve_read has no writer; its update_visible_* time the static
// deployment's only freshness path instead — offline rebuild plus
// `reload` — after the read phase, so reads are unaffected.

#include <array>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <thread>

#include "bench.h"
#include "core/estimator.h"
#include "core/mapped_catalog.h"
#include "core/serialize.h"
#include "graph/graph_io.h"
#include "maint/delta_journal.h"
#include "maint/incremental.h"
#include "ordering/factory.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using pathest::serve::ServeClient;

constexpr size_t kServeK = 4;
// The k = 4 catalog builds take ~50 ms. Built on 2 threads, their time
// swung by a third between runs on a shared host (thread wakeups); one
// thread spawns none and tracks the host's speed only.
constexpr size_t kCatalogBuildThreads = 1;
constexpr size_t kServeBuckets = 64;
constexpr size_t kWorkers = 4;
constexpr size_t kReaders = 2;
constexpr size_t kQueryLength = 4;  // 10 contiguous sub-paths
constexpr size_t kPoolSize = 4096;
constexpr uint64_t kCompactEveryRecords = 256;
// At 10 batches/s the maintenance thread is busy ~75% of the time on this
// graph and visibility swings with the backlog; 5/s keeps the open loop
// well below saturation, so the figures measure the refresh, not a queue.
constexpr double kBatchesPerSecond = 5;
constexpr size_t kBatchAdds = 2;
constexpr size_t kBatchRemoves = 2;
// Set-up repeats; on serve_update its catalog builds are build_s's only
// samples. One run's builds range over ±30% on a shared host, and the
// median of 9 spread 0.2–0.27 (IQR / median) over ten seeds; the median
// of 31 moved ~7% over five runs of one seed.
constexpr int kSetupReps = 31;
constexpr int kOfflineCycles = 20;
constexpr size_t kProbeChunk = 100;
// Replay budgets of the traced run (requests, and seconds of updates).
constexpr size_t kMaxReplayRequests = 20000;
constexpr double kMaxReplayUpdateSeconds = 4;

std::string EntryPath(const std::string& cat_dir, const std::string& name) {
  return cat_dir + "/" + name + ".stats";
}

// Position of the value of the first `"key":` at or after `from` in a stats
// payload. A missing key is fatal, so a renamed stats field cannot read as
// a perfect 0.
size_t JsonValueAt(const std::string& json, const std::string& key,
                   size_t from) {
  const size_t at = json.find("\"" + key + "\":", from);
  if (at == std::string::npos) {
    DieIf(Status::Internal("no \"" + key + "\" in " + json), "stats");
  }
  return at + key.size() + 3;
}

double JsonNumber(const std::string& json, const std::string& key,
                  size_t from = 0) {
  return std::strtod(json.c_str() + JsonValueAt(json, key, from), nullptr);
}

bool JsonTrue(const std::string& json, const std::string& key, size_t from) {
  return json.compare(JsonValueAt(json, key, from), 4, "true") == 0;
}

size_t CountOf(const std::string& haystack, const std::string& needle) {
  size_t n = 0;
  for (size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

// One deployment: generated graph text, the offline-built catalog, and a
// started daemon over it.
struct Deployment {
  std::string dir;
  std::string graph_path;
  std::string cat_dir;
  std::string socket_path;
  std::unique_ptr<OfflineBuild> build;
  std::unique_ptr<pathest::serve::ServeServer> server;
  double setup_s = 0;
  double build_s = 0;
  uint64_t catalog_bytes = 0;
};

std::unique_ptr<Deployment> SetUp(const RunOptions& opts, int rep,
                                  bool with_updates) {
  auto d = std::make_unique<Deployment>();
  d->dir = opts.work_dir + "/deploy" + std::to_string(rep);
  d->graph_path = d->dir + "/graph.txt";
  d->cat_dir = d->dir + "/cat";
  d->socket_path = d->dir + "/s.sock";
  const int64_t t0 = NowNs();
  fs::create_directories(d->cat_dir);
  WriteMorenoGraphText(opts, d->graph_path);
  const int64_t b0 = NowNs();
  auto built = RunOfflineBuild(d->graph_path, d->cat_dir, kServeK,
                               kServeBuckets, kCatalogBuildThreads);
  DieIf(built.status(), "catalog build");
  d->build_s = static_cast<double>(NowNs() - b0) / 1e9;
  d->build = std::make_unique<OfflineBuild>(std::move(built).ValueOrDie());
  // Size of the catalog as built offline (serve_update re-persists it).
  for (const std::string& name : EntryNames()) {
    d->catalog_bytes += fs::file_size(EntryPath(d->cat_dir, name));
  }

  pathest::serve::ServeOptions so;
  so.socket_path = d->socket_path;
  so.catalog_dir = d->cat_dir;
  so.num_workers = kWorkers;
  if (with_updates) {
    so.graph_path = d->graph_path;
    so.compact_every_records = kCompactEveryRecords;
  }
  d->server = std::make_unique<pathest::serve::ServeServer>(so);
  DieIf(d->server->Start(), "server start");
  auto client = ServeClient::Connect(d->socket_path);
  DieIf(client.status(), "connect");
  auto health = client->Call("health");
  DieIf(health.status(), "health");
  if (health->rfind("ok serving entries=" +
                        std::to_string(EntryNames().size()),
                    0) != 0) {
    DieIf(Status::Internal("unexpected health: " + *health), "health");
  }
  d->setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  return d;
}

void TearDown(std::unique_ptr<Deployment> d) {
  d->server.reset();  // RequestStop + Wait
  fs::remove_all(d->dir);
}

// A served entry opened in-process the way the daemon serves it: mapped
// when the file is binary v2, an owned copy otherwise.
struct LocalEntry {
  std::shared_ptr<const pathest::MappedCatalogEntry> mapped;
  std::unique_ptr<pathest::LoadedPathHistogram> loaded;
  std::unique_ptr<pathest::Estimator> owned;
  const pathest::Estimator* estimator = nullptr;
  const pathest::LabelDictionary* labels = nullptr;
};

LocalEntry OpenLocal(const std::string& path, bool allow_mapped) {
  LocalEntry e;
  auto is_v2 = pathest::SniffFileIsBinaryV2(path);
  DieIf(is_v2.status(), "sniff " + path);
  if (allow_mapped && *is_v2) {
    auto mapped = [&] {
      ScopedSpan span(GlobalTracer(), "core.mmap_open");
      return pathest::MappedCatalogEntry::Open(
          path, pathest::CatalogVerify::kChecksums);
    }();
    DieIf(mapped.status(), "mmap " + path);
    e.mapped = *mapped;
    e.estimator = &e.mapped->estimator();
    e.labels = &e.mapped->labels();
    return e;
  }
  auto loaded = pathest::LoadPathHistogram(path);
  DieIf(loaded.status(), "load " + path);
  e.loaded = std::make_unique<pathest::LoadedPathHistogram>(
      std::move(loaded).ValueOrDie());
  e.owned = std::make_unique<pathest::Estimator>(e.loaded->estimator);
  e.estimator = e.owned.get();
  e.labels = &e.loaded->labels;
  return e;
}

struct PoolRequest {
  std::string line;
  std::string expected;  // exact response; empty when values may change
};

// The seeded request pool both readers cycle through. With `oracles`, each
// request carries its exact expected response from an independent
// in-process Estimator over the same files (the copying, fully verified
// loader, not the daemon's mapped path).
std::vector<PoolRequest> MakePool(const Graph& graph, uint64_t seed,
                                  const std::vector<LocalEntry>* oracles) {
  std::mt19937_64 rng(seed);
  std::vector<double> weights;
  for (size_t i = 0; i < EntryNames().size(); ++i) {
    weights.push_back(1.0 / static_cast<double>(i + 1));  // Zipf(1.0)
  }
  std::discrete_distribution<size_t> entry_dist(weights.begin(),
                                                weights.end());
  std::uniform_int_distribution<uint32_t> label_dist(
      0, static_cast<uint32_t>(graph.num_labels() - 1));
  std::vector<PoolRequest> pool(kPoolSize);
  pathest::RankScratch scratch;
  for (PoolRequest& req : pool) {
    const size_t entry = entry_dist(rng);
    LabelId query[kQueryLength];
    for (LabelId& l : query) l = static_cast<LabelId>(label_dist(rng));
    req.line = "estimate " + EntryNames()[entry];
    if (oracles != nullptr) req.expected = "ok";
    for (size_t len = 1; len <= kQueryLength; ++len) {
      for (size_t start = 0; start + len <= kQueryLength; ++start) {
        LabelPath sub;
        for (size_t i = start; i < start + len; ++i) sub.PushBack(query[i]);
        req.line += ' ' + sub.ToString(graph.labels());
        if (oracles != nullptr) {
          const pathest::Estimator& oracle = *(*oracles)[entry].estimator;
          scratch.Reserve(oracle.num_labels());
          req.expected += ' ' + Fmt17(oracle.Estimate(sub, scratch));
        }
      }
    }
  }
  return pool;
}

constexpr size_t kSubPaths = kQueryLength * (kQueryLength + 1) / 2;

struct ClientTally {
  uint64_t attempts = 0;
  uint64_t failures = 0;
  std::string first_failure;
  void Fail(std::string why) {
    if (failures++ == 0) first_failure = std::move(why);
  }
};

// The round-trip percentiles kept for each one-second window of a reader,
// and their indexes.
constexpr double kWindowPercentiles[] = {0.50, 0.90, 0.99};
constexpr size_t kP50 = 0;
constexpr size_t kP90 = 1;
constexpr size_t kP99 = 2;
using WindowFigures = std::array<double, std::size(kWindowPercentiles)>;
// A window with fewer round trips (the cut-off last one) is not kept.
constexpr uint64_t kMinWindowSamples = 1000;

struct ReaderOut {
  LatencyHistogram all;
  std::vector<WindowFigures> windows;
  ClientTally tally;
  std::vector<std::pair<uint64_t, size_t>> traced;  // (request id, pool idx)
};

void ReaderLoop(const std::string& socket, const std::vector<PoolRequest>& pool,
                size_t reader, int64_t start_ns, int64_t end_ns,
                ReaderOut* out) {
  Tracer& tr = GlobalTracer();
  auto client = ServeClient::Connect(socket);
  if (!client.ok()) {
    out->tally.attempts++;
    out->tally.Fail("reader connect: " + client.status().ToString());
    return;
  }
  // Fixed memory whatever the run length: one histogram for the whole
  // phase, one for the current second, and three figures per second.
  LatencyHistogram window;
  int64_t window_index = 0;
  auto close_window = [&] {
    if (window.count() >= kMinWindowSamples) {
      WindowFigures figures{};
      for (size_t i = 0; i < figures.size(); ++i) {
        figures[i] = window.PercentileUs(kWindowPercentiles[i]);
      }
      out->windows.push_back(figures);
    }
    window.Reset();
  };
  size_t idx = reader * (pool.size() / kReaders);
  for (uint64_t seq = 1; NowNs() < end_ns; ++seq, ++idx) {
    const PoolRequest& req = pool[idx % pool.size()];
    const int64_t t0 = NowNs();
    auto resp = client->Call(req.line);
    const int64_t t1 = NowNs();
    out->tally.attempts++;
    if (!resp.ok()) {
      out->tally.Fail("estimate transport: " + resp.status().ToString());
      break;
    }
    const bool good = req.expected.empty()
                          ? resp->rfind("ok ", 0) == 0 &&
                                CountOf(*resp, " ") == kSubPaths
                          : *resp == req.expected;
    if (!good) {
      out->tally.Fail("estimate response '" + *resp + "' for '" + req.line +
                      "'");
      continue;
    }
    const int64_t index = (t0 - start_ns) / 1000000000;
    if (index != window_index) {
      close_window();
      window_index = index;
    }
    window.Add(t1 - t0);
    out->all.Add(t1 - t0);
    if (tr.enabled()) {
      const uint64_t id = (uint64_t{reader + 1} << 40) | seq;
      tr.Record("serve.request", t0, t1, -1, id);
      out->traced.emplace_back(id, idx % pool.size());
    }
  }
  close_window();
}

struct WriterOut {
  std::vector<double> visible_ms;
  std::vector<double> lag_ms;
  std::vector<std::string> batches;  // acknowledged, in order
  ClientTally tally;
  uint64_t compactions = 0;
};

// Open-loop writer: batch i is due at start + i / rate and is timed from
// its due time, so a stall also charges the batches queued behind it.
void WriterLoop(const std::string& socket, EdgeModel* model, int64_t end_ns,
                WriterOut* out) {
  Tracer& tr = GlobalTracer();
  auto client = ServeClient::Connect(socket);
  if (!client.ok()) {
    out->tally.attempts++;
    out->tally.Fail("writer connect: " + client.status().ToString());
    return;
  }
  const int64_t start = NowNs();
  const int64_t period = static_cast<int64_t>(1e9 / kBatchesPerSecond);
  uint64_t last_epoch = 0;
  for (int64_t i = 0;; ++i) {
    const int64_t due = start + i * period;
    if (due >= end_ns) break;
    const std::string tokens = model->NextBatch(kBatchAdds, kBatchRemoves);
    const int64_t wait = due - NowNs();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
    const int64_t sent = NowNs();
    auto resp = client->Call("update wait=1 " + tokens);
    const int64_t acked = NowNs();
    out->tally.attempts++;
    if (!resp.ok()) {
      out->tally.Fail("update transport: " + resp.status().ToString());
      return;
    }
    if (resp->rfind("ok applied=", 0) != 0) {
      out->tally.Fail("update response '" + *resp + "'");
      continue;
    }
    out->visible_ms.push_back(static_cast<double>(acked - due) / 1e6);
    out->lag_ms.push_back(static_cast<double>(sent - due) / 1e6);
    out->batches.push_back(tokens);
    if (tr.enabled()) {
      tr.Record("maint.update", due, acked, -1, (uint64_t{1} << 60) | i);
      // The refresh that applied this batch is the daemon's last
      // maintenance event (this writer is the only updater).
      auto stats = client->Call("stats");
      DieIf(stats.status(), "stats");
      const size_t ev = stats->find("\"last_event\":{\"type\":\"refresh\"");
      if (ev == std::string::npos) {
        DieIf(Status::Internal("last event is not a refresh: " + *stats),
              "stats");
      }
      const uint64_t epoch =
          static_cast<uint64_t>(JsonNumber(*stats, "epoch", ev));
      if (epoch != last_epoch && JsonTrue(*stats, "compacted", ev)) {
        ++out->compactions;
      }
      last_epoch = epoch;
    }
  }
}

struct Phase {
  LatencyHistogram all;
  std::vector<WindowFigures> windows;  // every reader's seconds
  WriterOut writer;
  std::vector<std::pair<uint64_t, size_t>> traced;
  double seconds = 0;
};

Phase RunPhase(const Deployment& d, const std::vector<PoolRequest>& pool,
               EdgeModel* model, double seconds, Report* report) {
  Phase phase;
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<ReaderOut> readers(kReaders);
  std::vector<std::thread> threads;
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back(ReaderLoop, d.socket_path, std::cref(pool), r, start,
                         end, &readers[r]);
  }
  if (model != nullptr) {
    threads.emplace_back(WriterLoop, d.socket_path, model, end,
                         &phase.writer);
  }
  for (std::thread& t : threads) t.join();
  phase.seconds = static_cast<double>(NowNs() - start) / 1e9;
  std::vector<ClientTally> tallies = {phase.writer.tally};
  for (ReaderOut& r : readers) {
    phase.all.Merge(r.all);
    phase.windows.insert(phase.windows.end(), r.windows.begin(),
                         r.windows.end());
    phase.traced.insert(phase.traced.end(), r.traced.begin(),
                        r.traced.end());
    tallies.push_back(r.tally);
  }
  for (const ClientTally& t : tallies) {
    report->Attempt(t.attempts);
    for (uint64_t i = 0; i < t.failures; ++i) report->Fail(t.first_failure);
  }
  if (model == nullptr) {
    report->CheckRan("serve_read.response_equals_oracle",
                     phase.all.count());
  }
  return phase;
}

// The median over every reader's one-second windows of each window's
// percentile kWindowPercentiles[i], so a burst of machine noise in one
// second does not set the run's figure.
double WindowedPercentile(const Phase& phase, size_t i) {
  std::vector<double> per_window;
  for (const WindowFigures& w : phase.windows) per_window.push_back(w[i]);
  return per_window.empty() ? phase.all.PercentileUs(kWindowPercentiles[i])
                            : Median(per_window);
}

// Replays one request line in-process through the public functions the
// daemon's estimate handler calls, with a span per stage; returns the
// response line it would send.
std::string ReplayRequest(const std::string& line, uint64_t id,
                          const std::map<std::string, LocalEntry>& entries,
                          pathest::RankScratch& scratch) {
  Tracer& tr = GlobalTracer();
  ScopedSpan handler(tr, "serve.handler", -1, id);
  auto request = [&] {
    ScopedSpan span(tr, "serve.request_parse", handler.id(), id);
    return pathest::serve::ParseRequest(line);
  }();
  if (!request.ok() || request->args.size() < 2) return "err request";
  const auto it = entries.find(request->args[0]);
  if (it == entries.end()) return "err entry";
  const pathest::Estimator& estimator = *it->second.estimator;
  scratch.Reserve(estimator.num_labels());
  const size_t n = request->args.size() - 1;
  std::vector<LabelPath> paths(n);
  {
    ScopedSpan span(tr, "serve.path_parse", handler.id(), id, n);
    for (size_t i = 0; i < n; ++i) {
      auto path = LabelPath::Parse(request->args[i + 1], *it->second.labels);
      if (!path.ok() || !estimator.ordering().space().Contains(*path)) {
        return "err path";
      }
      paths[i] = *path;
    }
  }
  std::vector<uint64_t> ranks(n);
  {
    ScopedSpan span(tr, "ordering.rank", handler.id(), id, n);
    for (size_t i = 0; i < n; ++i) {
      ranks[i] = estimator.Rank(paths[i], scratch);
    }
  }
  std::vector<double> values(n);
  {
    ScopedSpan span(tr, "histogram.lookup", handler.id(), id, n);
    for (size_t i = 0; i < n; ++i) {
      values[i] = estimator.flat().EstimatePoint(ranks[i]);
    }
  }
  std::string response = "ok";
  {
    ScopedSpan span(tr, "serve.format", handler.id(), id, n);
    for (double v : values) {
      response += ' ';
      pathest::serve::AppendEstimateValue(&response, v);
    }
  }
  return response;
}

void ReplayRequests(const Deployment& d, const std::vector<PoolRequest>& pool,
                    const Phase& phase, Report* report) {
  std::map<std::string, LocalEntry> entries;
  for (const std::string& name : EntryNames()) {
    entries.emplace(name, OpenLocal(EntryPath(d.cat_dir, name), true));
  }
  pathest::RankScratch scratch;
  const size_t n = std::min(phase.traced.size(), kMaxReplayRequests);
  uint64_t mismatches = 0;
  for (size_t i = 0; i < n; ++i) {
    const auto& [id, idx] = phase.traced[i];
    const std::string response =
        ReplayRequest(pool[idx].line, id, entries, scratch);
    if (!pool[idx].expected.empty() && response != pool[idx].expected) {
      ++mismatches;
    }
  }
  if (!pool.front().expected.empty()) {
    report->CheckRan("serve_read.replay_equals_oracle", n);
    report->Attempt(n);
    for (uint64_t i = 0; i < mismatches; ++i) {
      report->Fail("in-process replay differs from the oracle");
    }
  }
}

// Replays the acknowledged update stream in-process through the public
// maintenance functions, from the deployment's original graph text, with
// a span per stage; the incremental rebuild is checked against the full
// rebuild it replaces.
void ReplayUpdates(const Deployment& d, const std::vector<std::string>& batches,
                   Report* report) {
  Tracer& tr = GlobalTracer();
  auto graph = pathest::LoadGraphFile(d.graph_path);
  DieIf(graph.status(), "replay graph load");
  auto map = pathest::ComputeSelectivities(*graph, kServeK);
  DieIf(map.status(), "replay base map");
  const std::string dir = d.dir + "/replay";
  fs::create_directories(dir + "/cat");
  pathest::maint::DeltaJournalWriter journal;
  DieIf(journal.Open(dir + "/deltas.journal"), "replay journal");
  const int64_t end =
      NowNs() + static_cast<int64_t>(kMaxReplayUpdateSeconds * 1e9);
  for (const std::string& tokens : batches) {
    if (NowNs() >= end) break;
    auto request = pathest::serve::ParseRequest("update " + tokens);
    DieIf(request.status(), "replay batch");
    std::vector<pathest::maint::EdgeDelta> deltas;
    std::vector<pathest::maint::DeltaRecord> records;
    const auto& args = request->args;
    for (size_t i = 0; i + 3 < args.size(); i += 4) {
      auto label = graph->labels().Find(args[i + 3]);
      DieIf(label.status(), "replay label");
      const pathest::maint::EdgeDelta delta{
          args[i] == "add", static_cast<VertexId>(std::stoul(args[i + 1])),
          static_cast<VertexId>(std::stoul(args[i + 2])), *label};
      deltas.push_back(delta);
      records.push_back(
          delta.add ? pathest::maint::DeltaRecord::AddEdge(delta.src,
                                                           delta.dst, *label)
                    : pathest::maint::DeltaRecord::RemoveEdge(
                          delta.src, delta.dst, *label));
    }
    {
      ScopedSpan span(tr, "maint.journal_append");
      DieIf(journal.AppendBatch(records), "replay journal append");
    }
    auto patched = [&] {
      ScopedSpan span(tr, "maint.patch");
      return pathest::maint::PatchGraph(*graph, deltas);
    }();
    DieIf(patched.status(), "replay patch");
    pathest::maint::IncrementalStats stats;
    auto incremental = [&] {
      ScopedSpan span(tr, "maint.incremental");
      return pathest::maint::IncrementalSelectivities(
          *patched, *map, deltas, pathest::SelectivityOptions{}, &stats);
    }();
    DieIf(incremental.status(), "replay incremental");
    if (stats.total_tasks > 0) {
      tr.Sample("maint.dirty_task_frac",
                static_cast<double>(stats.dirty_tasks) /
                    static_cast<double>(stats.total_tasks));
    }
    auto full = [&] {
      ScopedSpan span(tr, "maint.full_rebuild");
      return pathest::ComputeSelectivities(*patched, kServeK);
    }();
    DieIf(full.status(), "replay full rebuild");
    report->Attempt();
    report->CheckRan("serve_update.incremental_equals_full");
    if (incremental->values() != full->values()) {
      report->Fail("incremental rebuild differs from the full rebuild");
    }
    {
      ScopedSpan span(tr, "maint.persist");
      for (const std::string& name : EntryNames()) {
        auto ordering = pathest::MakeOrdering(name, *patched, kServeK);
        DieIf(ordering.status(), "replay ordering");
        auto histogram = pathest::PathHistogram::Build(
            *incremental, std::move(*ordering),
            pathest::HistogramType::kVOptimal, kServeBuckets);
        DieIf(histogram.status(), "replay histogram");
        DieIf(pathest::SavePathHistogram(*histogram, *patched,
                                         EntryPath(dir + "/cat", name),
                                         pathest::CatalogFormat::kBinary),
              "replay persist");
      }
    }
    graph = std::move(patched);
    map = std::move(incremental);
  }
}

// Once the writer has stopped and its last batch is applied, every entry
// must answer all of L_k exactly as a from-scratch build on the graph the
// acknowledged updates imply. Returns the q-errors of those answers.
std::vector<double> CheckFinalState(const Deployment& d,
                                    const EdgeModel& model, Report* report) {
  const std::string text = d.dir + "/final.txt";
  model.WriteText(text);
  auto graph = pathest::LoadGraphFile(text);
  DieIf(graph.status(), "final graph");
  auto truth = pathest::ComputeSelectivities(*graph, kServeK);
  DieIf(truth.status(), "final selectivities");
  const std::vector<LabelPath> paths = AllPaths(graph->num_labels(), kServeK);
  auto client = ServeClient::Connect(d.socket_path);
  DieIf(client.status(), "final connect");
  std::vector<double> qerrors;
  for (const std::string& name : EntryNames()) {
    auto ordering = pathest::MakeOrdering(name, *graph, kServeK);
    DieIf(ordering.status(), "final ordering");
    auto oracle = pathest::PathHistogram::Build(
        *truth, std::move(*ordering), pathest::HistogramType::kVOptimal,
        kServeBuckets);
    DieIf(oracle.status(), "final histogram");
    for (size_t i = 0; i < paths.size(); i += kProbeChunk) {
      const size_t end = std::min(paths.size(), i + kProbeChunk);
      std::string line = "estimate " + name;
      std::string expected = "ok";
      for (size_t j = i; j < end; ++j) {
        line += ' ' + paths[j].ToString(graph->labels());
        const double e = oracle->Estimate(paths[j]);
        expected += ' ' + Fmt17(e);
        qerrors.push_back(
            QError(e, static_cast<double>(truth->Get(paths[j]))));
      }
      report->Attempt();
      auto resp = client->Call(line);
      if (!resp.ok() || *resp != expected) {
        report->Fail("final state of " + name + " differs from a rebuild");
      }
    }
    report->CheckRan("serve_update.final_state_equals_rebuild");
  }
  return qerrors;
}

// The static deployment's freshness path, after the measured phase: each
// cycle applies one edge batch to the graph text, rebuilds the served
// catalog offline (timed into *build_s), then sends `reload` (timed from
// the rebuild's start to its answer into *visible_ms).
void OfflineRebuilds(const Deployment& d, EdgeModel* model,
                     std::vector<double>* build_s,
                     std::vector<double>* visible_ms, Report* report) {
  auto client = ServeClient::Connect(d.socket_path);
  DieIf(client.status(), "reload connect");
  for (int c = 0; c < kOfflineCycles; ++c) {
    model->NextBatch(kBatchAdds, kBatchRemoves);
    model->WriteText(d.graph_path);
    const int64_t t0 = NowNs();
    auto built = RunOfflineBuild(d.graph_path, d.cat_dir, kServeK,
                                 kServeBuckets, kCatalogBuildThreads);
    const int64_t t1 = NowNs();
    report->Attempt();
    if (!built.ok()) {
      report->Fail("offline rebuild: " + built.status().ToString());
      continue;
    }
    build_s->push_back(static_cast<double>(t1 - t0) / 1e9);
    auto resp = client->Call("reload");
    const int64_t t2 = NowNs();
    if (!resp.ok() || resp->rfind("ok loaded=5 quarantined=0", 0) != 0) {
      report->Fail("reload: " +
                   (resp.ok() ? *resp : resp.status().ToString()));
      continue;
    }
    visible_ms->push_back(static_cast<double>(t2 - t0) / 1e6);
  }
}

struct DaemonStats {
  double shed = 0;
  double deadline_exceeded = 0;
  double invalid = 0;
  double publishes = 0;
  double mapped_entry_frac = 0;
  double cache_hits = 0;
  double cache_misses = 0;
  double edges_per_refresh = 0;
};

DaemonStats ReadStats(const Deployment& d) {
  auto client = ServeClient::Connect(d.socket_path);
  DieIf(client.status(), "stats connect");
  auto resp = client->Call("stats");
  DieIf(resp.status(), "stats");
  const std::string& s = *resp;
  DaemonStats st;
  st.shed = JsonNumber(s, "connections_shed");
  st.deadline_exceeded = JsonNumber(s, "deadline_exceeded");
  st.invalid = JsonNumber(s, "invalid_requests");
  st.publishes = JsonNumber(s, "version");
  const double mapped = static_cast<double>(CountOf(s, "\"mapped\":true"));
  const double entries =
      mapped + static_cast<double>(CountOf(s, "\"mapped\":false"));
  if (entries != static_cast<double>(EntryNames().size())) {
    DieIf(Status::Internal("entries without a \"mapped\" flag in " + s),
          "stats");
  }
  st.mapped_entry_frac = mapped / entries;
  const size_t cache = JsonValueAt(s, "mmap_cache", 0);
  st.cache_hits = JsonNumber(s, "hits", cache);
  st.cache_misses = JsonNumber(s, "misses", cache);
  const double refreshes = JsonNumber(s, "incremental_refreshes");
  st.edges_per_refresh =
      refreshes > 0 ? JsonNumber(s, "updates_journaled") / refreshes : 0;
  return st;
}

}  // namespace

void RunServe(const RunOptions& opts, bool with_updates, Report* report) {
  Tracer& tr = GlobalTracer();
  // Set-up, repeated: generation, catalog build, daemon start. The last
  // deployment is kept for the measurement. A traced run traces set-up
  // too, so the build layers are measured on this workload's input.
  tr.Enable(opts.trace);
  std::vector<double> setup_s;
  std::vector<double> build_s;
  std::unique_ptr<Deployment> d;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (d) TearDown(std::move(d));
    d = SetUp(opts, rep, with_updates);
    setup_s.push_back(d->setup_s);
    build_s.push_back(d->build_s);
  }
  const double setup_rss_mb = PeakRssMiB();

  const Graph& graph = d->build->graph;
  std::vector<LocalEntry> oracles;
  std::vector<double> qerrors;
  if (!with_updates) {
    for (const std::string& name : EntryNames()) {
      oracles.push_back(OpenLocal(EntryPath(d->cat_dir, name), false));
    }
    const std::vector<LabelPath> paths = AllPaths(graph.num_labels(), kServeK);
    const std::vector<uint64_t>& truth = d->build->truth.values();
    pathest::RankScratch scratch;
    for (const LocalEntry& oracle : oracles) {
      ScopedSpan span(tr, "core.qerror_pass");
      scratch.Reserve(oracle.estimator->num_labels());
      for (size_t j = 0; j < paths.size(); ++j) {
        qerrors.push_back(QError(oracle.estimator->Estimate(paths[j], scratch),
                                 static_cast<double>(truth[j])));
      }
    }
  }
  tr.Enable(false);
  const std::vector<PoolRequest> pool = MakePool(
      graph, DeriveSeed(opts.seed, 2), with_updates ? nullptr : &oracles);
  EdgeModel model(graph, DeriveSeed(opts.seed, 3));
  EdgeModel* writer_model = with_updates ? &model : nullptr;

  std::vector<double> visible_ms;
  if (!opts.trace) {
    const Phase phase = RunPhase(*d, pool, writer_model, opts.seconds, report);
    if (with_updates) {
      // build_s here rests on the set-up builds alone.
      visible_ms = phase.writer.visible_ms;
      qerrors = CheckFinalState(*d, model, report);
    } else {
      OfflineRebuilds(*d, &model, &build_s, &visible_ms, report);
    }
    report->Set("setup_s", Median(setup_s), "s");
    report->Set("build_s", Median(build_s), "s");
    report->Set("catalog_bytes", static_cast<double>(d->catalog_bytes),
                "bytes");
    report->Set("qerror_p50", Percentile(qerrors, 0.50), "ratio");
    report->Set("qerror_p95", Percentile(qerrors, 0.95), "ratio");
    report->Set("estimate_p50_us", WindowedPercentile(phase, kP50), "us");
    report->Set("estimate_p90_us", WindowedPercentile(phase, kP90), "us");
    report->Set("estimate_p99_us", WindowedPercentile(phase, kP99), "us");
    report->Set("estimate_rps",
                static_cast<double>(phase.all.count()) / phase.seconds,
                "req/s");
    report->Set("update_visible_p50_ms", Percentile(visible_ms, 0.50), "ms");
    report->Set("update_visible_p95_ms", Percentile(visible_ms, 0.95), "ms");
    std::printf("samples: estimate_requests=%llu updates=%zu builds=%zu "
                "peak_rss_after_setup_mb=%.1f\n",
                static_cast<unsigned long long>(phase.all.count()),
                visible_ms.size(), build_s.size(), setup_rss_mb);
  } else {
    // Untraced, then traced, against the same daemon; the difference of
    // their median request latency is the tracing overhead.
    const Phase untraced =
        RunPhase(*d, pool, writer_model, opts.seconds / 2, report);
    tr.Enable(true);
    const Phase traced =
        RunPhase(*d, pool, writer_model, opts.seconds / 2, report);
    ReplayRequests(*d, pool, traced, report);
    if (with_updates) {
      CheckFinalState(*d, model, report);
      std::vector<std::string> batches = untraced.writer.batches;
      batches.insert(batches.end(), traced.writer.batches.begin(),
                     traced.writer.batches.end());
      ReplayUpdates(*d, batches, report);
    } else {
      OfflineRebuilds(*d, &model, &build_s, &visible_ms, report);
    }
    tr.Enable(false);
    SetSpanLayerMetrics(report);
    const auto round_trip = tr.DurationByRequest("serve.request");
    const auto handler = tr.DurationByRequest("serve.handler");
    std::vector<double> transport_us;
    for (const auto& [id, ns] : handler) {
      const auto rt = round_trip.find(id);
      if (rt != round_trip.end()) {
        transport_us.push_back((rt->second - ns) / 1e3);
      }
    }
    report->Set("serve.transport_us", Median(transport_us), "us");
    const DaemonStats st = ReadStats(*d);
    report->Set("core.cache_hits", st.cache_hits, "count");
    report->Set("core.cache_misses", st.cache_misses, "count");
    report->Set("serve.shed", st.shed, "count");
    report->Set("serve.deadline_exceeded", st.deadline_exceeded, "count");
    report->Set("serve.invalid", st.invalid, "count");
    report->Set("serve.publishes", st.publishes, "count");
    report->Set("serve.mapped_entry_frac", st.mapped_entry_frac, "ratio");
    report->Set("maint.edges_per_refresh", st.edges_per_refresh, "count");
    report->Set("maint.compactions",
                static_cast<double>(traced.writer.compactions), "count");
    report->Set("gen.lag_ms", Percentile(traced.writer.lag_ms, 0.99), "ms");
    const double base = WindowedPercentile(untraced, kP50);
    report->Set("trace.overhead_frac",
                base > 0 ? (WindowedPercentile(traced, kP50) - base) / base
                         : 0,
                "ratio");
  }
  TearDown(std::move(d));
}

}  // namespace perfbench
