// End-to-end tests of online maintenance through the serve daemon
// (serve/server.h + maint/online_maintenance.h): the update/compact
// protocol commands, fsync-before-ack journaling, incremental refresh
// published through the atomic snapshot swap, journal replay across
// daemon restarts, quarantine of a corrupted journal (degraded serving),
// and the maintenance torture test — concurrent estimate clients racing
// an update stream, where every response must be bit-identical to the
// serial oracle of SOME applied prefix of the updates, then a restart
// must recover the exact final state.
//
// Also here: the retrying client (serve/client.h CallWithRetry) against a
// scripted flaky mock server — retriable errors and transport failures
// retry with backoff, fatal errors and "ok" return immediately.

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/serialize.h"
#include "graph/graph_io.h"
#include "maint/delta_journal.h"
#include "maint/incremental.h"
#include "ordering/factory.h"
#include "path/label_path.h"
#include "path/selectivity.h"
#include "serve/client.h"
#include "serve/server.h"
#include "test_util.h"
#include "util/fault_injection.h"

namespace pathest {
namespace serve {
namespace {

using testing_util::SmallGraph;

// ---------------------------------------------------------------------------
// ClassifyResponse units (no sockets).

TEST(ClassifyResponseTest, TaxonomyMatchesProtocol) {
  EXPECT_EQ(ClassifyResponse("ok"), ResponseClass::kOk);
  EXPECT_EQ(ClassifyResponse("ok 1.5 2.5"), ResponseClass::kOk);
  EXPECT_EQ(ClassifyResponse("ok journaled=2 pending=2"), ResponseClass::kOk);
  EXPECT_EQ(ClassifyResponse("err ResourceExhausted retriable queue full"),
            ResponseClass::kRetriableError);
  EXPECT_EQ(ClassifyResponse("err Unavailable retriable draining"),
            ResponseClass::kRetriableError);
  EXPECT_EQ(ClassifyResponse("err NotFound fatal no such entry"),
            ResponseClass::kFatalError);
  // Garbage is never retried.
  EXPECT_EQ(ClassifyResponse(""), ResponseClass::kFatalError);
  EXPECT_EQ(ClassifyResponse("okay"), ResponseClass::kFatalError);
  EXPECT_EQ(ClassifyResponse("err"), ResponseClass::kFatalError);
  EXPECT_EQ(ClassifyResponse("err NotFound"), ResponseClass::kFatalError);
  EXPECT_EQ(ClassifyResponse("err NotFound retriablefatal x"),
            ResponseClass::kFatalError);
}

// ---------------------------------------------------------------------------
// A scripted flaky server: one connection per script entry.
//   'R' -> answer a retriable error        'F' -> answer a fatal error
//   'C' -> close without answering          'O' -> answer "ok done"
class FlakyMockServer {
 public:
  FlakyMockServer(std::string socket_path, std::string script)
      : socket_path_(std::move(socket_path)), script_(std::move(script)) {
    auto listener = ListenUnixSocket(socket_path_, 8);
    PATHEST_CHECK(listener.ok(), "mock listen failed");
    listener_ = std::move(*listener);
    thread_ = std::thread([this] { Run(); });
  }

  ~FlakyMockServer() {
    // shutdown() wakes the blocked accept(); close only after the join,
    // since Run() reads listener_ until it returns.
    ::shutdown(listener_.get(), SHUT_RDWR);
    thread_.join();
    listener_.reset();
  }

  size_t connections() const { return served_.load(); }

 private:
  void Run() {
    for (size_t i = 0; i < script_.size(); ++i) {
      int fd = ::accept(listener_.get(), nullptr, nullptr);
      if (fd < 0) return;  // torn down
      UniqueFd conn(fd);
      served_.fetch_add(1);
      std::string line;
      LineReader reader(conn.get(), /*idle_timeout_ms=*/2000, 1 << 20);
      if (reader.ReadLine(&line) != ReadLineResult::kLine) continue;
      switch (script_[i]) {
        case 'R':
          SendAll(conn.get(), "err Unavailable retriable mock busy\n");
          break;
        case 'F':
          SendAll(conn.get(), "err NotFound fatal mock says no\n");
          break;
        case 'O':
          SendAll(conn.get(), "ok done\n");
          break;
        case 'C':
        default:
          break;  // close without answering: transport failure
      }
    }
  }

  std::string socket_path_;
  std::string script_;
  UniqueFd listener_;
  std::thread thread_;
  std::atomic<size_t> served_{0};
};

class RetryTest : public ::testing::Test {
 protected:
  RetryTest() {
    static std::atomic<int> counter{0};
    root_ = std::filesystem::temp_directory_path() /
            ("pathest_retry_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter.fetch_add(1)));
    std::filesystem::create_directories(root_);
    sock_ = (root_ / "m.sock").string();
  }
  ~RetryTest() override {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }

  // Fast backoff so the whole suite stays sub-second.
  static RetryOptions FastRetry(size_t attempts) {
    RetryOptions options;
    options.max_attempts = attempts;
    options.initial_backoff_ms = 1;
    options.max_backoff_ms = 4;
    options.response_timeout_ms = 2000;
    return options;
  }

  std::filesystem::path root_;
  std::string sock_;
};

TEST_F(RetryTest, RetriesThroughRetriableErrorsToSuccess) {
  FlakyMockServer mock(sock_, "RRO");
  auto resp = CallWithRetry(sock_, "anything", FastRetry(4));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(*resp, "ok done");
  EXPECT_EQ(mock.connections(), 3u);
}

TEST_F(RetryTest, RetriesThroughTransportFailuresToSuccess) {
  FlakyMockServer mock(sock_, "CCO");
  auto resp = CallWithRetry(sock_, "anything", FastRetry(4));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(*resp, "ok done");
  EXPECT_EQ(mock.connections(), 3u);
}

TEST_F(RetryTest, FatalErrorReturnsImmediatelyWithoutRetry) {
  FlakyMockServer mock(sock_, "FO");
  auto resp = CallWithRetry(sock_, "anything", FastRetry(5));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(*resp, "err NotFound fatal mock says no");
  EXPECT_EQ(mock.connections(), 1u);  // the "O" was never consumed
}

TEST_F(RetryTest, ExhaustionReturnsTheLastRetriableLine) {
  FlakyMockServer mock(sock_, "RRR");
  auto resp = CallWithRetry(sock_, "anything", FastRetry(3));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(*resp, "err Unavailable retriable mock busy");
  EXPECT_EQ(mock.connections(), 3u);  // capped: exactly max_attempts dials
}

TEST_F(RetryTest, NoListenerYieldsTransportStatusAfterCappedAttempts) {
  auto resp = CallWithRetry(sock_, "anything", FastRetry(3));
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kIOError);
}

// ---------------------------------------------------------------------------
// Maintenance-enabled server fixture.

class MaintServeTest : public ::testing::Test {
 protected:
  MaintServeTest() : graph_(SmallGraph()) {
    static std::atomic<int> counter{0};
    root_ = std::filesystem::temp_directory_path() /
            ("pathest_maint_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter.fetch_add(1)));
    catalog_ = root_ / "cat";
    std::filesystem::create_directories(catalog_);

    // The graph file the daemon bootstraps its maintenance base from.
    graph_path_ = (root_ / "g.graph").string();
    std::ofstream out(graph_path_);
    PATHEST_CHECK(WriteGraphText(graph_, &out).ok(), "graph write failed");
    out.close();

    // One catalog entry, in binary v1; its recovered config (ordering,
    // type, beta, k) is what maintenance re-persists after every refresh.
    SaveEntry("alpha", CatalogFormat::kBinary);
  }

  ~MaintServeTest() override {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }

  // The fixture's entry config built from scratch on `graph`.
  static PathHistogram BuildEntry(const Graph& graph) {
    auto truth = ComputeSelectivities(graph, 3);
    PATHEST_CHECK(truth.ok(), "selectivities failed");
    auto ordering =
        MakeOrderingWithSelectivities("sum-based", graph, 3, *truth);
    PATHEST_CHECK(ordering.ok(), "ordering failed");
    auto est = PathHistogram::Build(*truth, std::move(*ordering),
                                    HistogramType::kVOptimal, 6);
    PATHEST_CHECK(est.ok(), "estimator failed");
    return std::move(*est);
  }

  void SaveEntry(const std::string& name, CatalogFormat format) {
    PATHEST_CHECK(SavePathHistogram(BuildEntry(graph_), graph_,
                                    (catalog_ / (name + ".stats")).string(),
                                    format)
                      .ok(),
                  "save failed");
  }

  ServeOptions MaintOptions() {
    ServeOptions options;
    options.socket_path = (root_ / "s.sock").string();
    options.catalog_dir = catalog_.string();
    options.num_workers = 2;
    options.queue_capacity = 16;
    options.graph_path = graph_path_;
    return options;
  }

  ServeClient Connect(const ServeServer& server) {
    auto client = ServeClient::Connect(server.options().socket_path);
    PATHEST_CHECK(client.ok(), "client connect failed");
    return std::move(*client);
  }

  // The serial oracle: the exact "estimate alpha <paths>" response a
  // correct server must produce once `deltas` are applied — a FULL
  // rebuild on the patched graph, persisted and reloaded through the
  // same binary v2 round-trip the daemon's maintained entries take.
  std::string Oracle(const std::vector<maint::EdgeDelta>& deltas,
                     const std::vector<std::string>& paths) {
    auto patched = maint::PatchGraph(graph_, deltas);
    PATHEST_CHECK(patched.ok(), "oracle patch failed");
    const std::string file = (root_ / "oracle.stats").string();
    PATHEST_CHECK(SavePathHistogram(BuildEntry(*patched), *patched, file,
                                    CatalogFormat::kBinaryV2)
                      .ok(),
                  "oracle save failed");
    auto loaded = LoadPathHistogram(file);
    PATHEST_CHECK(loaded.ok(), "oracle load failed");
    Estimator serving(loaded->estimator);
    RankScratch scratch;
    std::string out = "ok";
    for (const std::string& text : paths) {
      auto path = LabelPath::Parse(text, loaded->labels);
      PATHEST_CHECK(path.ok(), "oracle path parse failed");
      out += ' ';
      AppendEstimateValue(&out, serving.Estimate(*path, scratch));
    }
    return out;
  }

  Graph graph_;
  std::filesystem::path root_;
  std::filesystem::path catalog_;
  std::string graph_path_;
};

TEST_F(MaintServeTest, UpdateWithoutMaintenanceIsFatal) {
  ServeOptions options = MaintOptions();
  options.graph_path.clear();  // maintenance off
  ServeServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ServeClient client = Connect(server);
  auto resp = client.Call("update add 0 3 a");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->rfind("err InvalidArgument fatal ", 0), 0u) << *resp;
  resp = client.Call("compact");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->rfind("err InvalidArgument fatal ", 0), 0u) << *resp;
  ASSERT_TRUE(client.Call("shutdown").ok());
  server.Wait();
}

TEST_F(MaintServeTest, UpdateAppliesAndServesTheIncrementalStatistics) {
  ServeServer server(MaintOptions());
  ASSERT_TRUE(server.Start().ok());
  ServeClient client = Connect(server);

  const std::vector<std::string> paths = {"a", "a/b", "a/b/c", "c"};
  // Before any update the server serves the seeded entry.
  auto before = client.Call("estimate alpha a a/b a/b/c c");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(*before, Oracle({}, paths));

  // A waited update batch: both an add and a remove, acked after apply.
  auto resp = client.Call("update wait=1 add 2 0 a remove 3 0 c");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->rfind("ok applied=2 epoch=", 0), 0u) << *resp;

  const LabelId a = *graph_.labels().Find("a");
  const LabelId c = *graph_.labels().Find("c");
  std::vector<maint::EdgeDelta> deltas = {{true, 2, 0, a}, {false, 3, 0, c}};
  auto after = client.Call("estimate alpha a a/b a/b/c c");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, Oracle(deltas, paths));
  EXPECT_NE(*after, *before);  // the update was observable

  // Validation taxonomy.
  auto bad = client.Call("update add 0 3 nosuchlabel");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->rfind("err NotFound fatal ", 0), 0u) << *bad;
  bad = client.Call("update add 0 3");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->rfind("err InvalidArgument fatal ", 0), 0u) << *bad;
  bad = client.Call("update add 99999999999 3 a");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->rfind("err InvalidArgument fatal ", 0), 0u) << *bad;
  bad = client.Call("update frobnicate 0 3 a");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->rfind("err InvalidArgument fatal ", 0), 0u) << *bad;

  // Stats surfaces the maintenance counters and state.
  auto stats = client.Call("stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("\"maintenance\":{\"enabled\":true"),
            std::string::npos)
      << *stats;
  EXPECT_NE(stats->find("\"updates_journaled\":2"), std::string::npos);
  EXPECT_NE(stats->find("\"incremental_refreshes\":"), std::string::npos);
  EXPECT_NE(stats->find("\"age_s\":"), std::string::npos);
  EXPECT_NE(stats->find("\"quarantined_journals\":0"), std::string::npos);

  ASSERT_TRUE(client.Call("shutdown").ok());
  server.Wait();
  EXPECT_EQ(server.counters().updates_journaled.load(), 2u);
  EXPECT_GE(server.counters().incremental_refreshes.load(), 1u);
}

TEST_F(MaintServeTest, FireAndForgetUpdatesApplyAsynchronously) {
  ServeServer server(MaintOptions());
  ASSERT_TRUE(server.Start().ok());
  ServeClient client = Connect(server);

  auto resp = client.Call("update add 2 0 a");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->rfind("ok journaled=1 pending=", 0), 0u) << *resp;

  // A waited no-op update is a sync barrier: once it applies, everything
  // journaled before it has applied too (single FIFO refresh queue).
  resp = client.Call("update wait=1 add 2 0 a");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->rfind("ok applied=1 ", 0), 0u) << *resp;

  const LabelId a = *graph_.labels().Find("a");
  auto est = client.Call("estimate alpha a a/b");
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(*est, Oracle({{true, 2, 0, a}}, {"a", "a/b"}));

  ASSERT_TRUE(client.Call("shutdown").ok());
  server.Wait();
}

TEST_F(MaintServeTest, RestartReplaysAcknowledgedButUnappliedRecords) {
  // Phase 1: a daemon applies one update, then shuts down cleanly.
  const LabelId a = *graph_.labels().Find("a");
  const LabelId b = *graph_.labels().Find("b");
  {
    ServeServer server(MaintOptions());
    ASSERT_TRUE(server.Start().ok());
    ServeClient client = Connect(server);
    auto resp = client.Call("update wait=1 add 2 0 a");
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->rfind("ok applied=", 0), 0u) << *resp;
    ASSERT_TRUE(client.Call("shutdown").ok());
    server.Wait();
  }

  // Phase 2: simulate "acknowledged but crashed before refresh" — append
  // records straight into the journal, exactly the bytes a daemon fsyncs
  // before acking, with no snapshot rebuild behind them.
  {
    maint::DeltaJournalWriter writer;
    ASSERT_TRUE(
        writer.Open((catalog_ / "maint" / "deltas.journal").string()).ok());
    ASSERT_TRUE(writer
                    .AppendBatch({maint::DeltaRecord::AddEdge(3, 1, b),
                                  maint::DeltaRecord::RemoveEdge(0, 2, a)})
                    .ok());
    writer.Close();
  }

  // Phase 3: a fresh daemon must replay BOTH the applied and the
  // crash-stranded records at startup and serve their combined state.
  ServeServer server(MaintOptions());
  ASSERT_TRUE(server.Start().ok());
  ServeClient client = Connect(server);
  std::vector<maint::EdgeDelta> all = {
      {true, 2, 0, a}, {true, 3, 1, b}, {false, 0, 2, a}};
  auto est = client.Call("estimate alpha a a/b a/b/c c");
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(*est, Oracle(all, {"a", "a/b", "a/b/c", "c"}));
  EXPECT_GE(server.counters().journal_replayed_records.load(), 2u);

  auto stats = client.Call("stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("\"type\":\"recovery\""), std::string::npos)
      << *stats;

  ASSERT_TRUE(client.Call("shutdown").ok());
  server.Wait();
}

TEST_F(MaintServeTest, CompactFoldsTheJournalAndStateSurvivesRestart) {
  const LabelId a = *graph_.labels().Find("a");
  {
    ServeServer server(MaintOptions());
    ASSERT_TRUE(server.Start().ok());
    ServeClient client = Connect(server);
    auto resp = client.Call("update wait=1 add 2 0 a");
    ASSERT_TRUE(resp.ok());
    resp = client.Call("compact");
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->rfind("ok compacted epoch=", 0), 0u) << *resp;
    ASSERT_TRUE(client.Call("shutdown").ok());
    server.Wait();
  }
  // After compaction the journal holds only the marker...
  auto scan = maint::ScanDeltaJournal(
      (catalog_ / "maint" / "deltas.journal").string());
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  size_t edges = 0;
  for (const auto& rec : scan->records) {
    if (rec.is_edge()) ++edges;
  }
  EXPECT_EQ(edges, 0u);
  // ...and a restart serves the compacted state from the new base alone.
  ServeServer server(MaintOptions());
  ASSERT_TRUE(server.Start().ok());
  ServeClient client = Connect(server);
  auto est = client.Call("estimate alpha a a/b c");
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(*est, Oracle({{true, 2, 0, a}}, {"a", "a/b", "c"}));
  ASSERT_TRUE(client.Call("shutdown").ok());
  server.Wait();
}

TEST_F(MaintServeTest, CorruptJournalQuarantinesAndServesDegraded) {
  // Build a journal with several applied records, then corrupt it
  // MID-FILE (valid frames after the damage) — the unrecoverable class.
  {
    ServeServer server(MaintOptions());
    ASSERT_TRUE(server.Start().ok());
    ServeClient client = Connect(server);
    ASSERT_TRUE(client.Call("update wait=1 add 2 0 a").ok());
    ASSERT_TRUE(client.Call("update wait=1 add 3 2 b").ok());
    ASSERT_TRUE(client.Call("shutdown").ok());
    server.Wait();
  }
  const std::string journal = (catalog_ / "maint" / "deltas.journal").string();
  auto bytes = ReadFileBytes(journal);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(FlipBit(&*bytes, 8 + 4, 2).ok());  // first frame's CRC field
  ASSERT_TRUE(WriteFileBytes(journal, *bytes).ok());

  // The daemon must still start: quarantine the journal, rebuild from the
  // base, and serve (degraded maintenance, healthy estimates).
  ServeServer server(MaintOptions());
  ASSERT_TRUE(server.Start().ok());
  ServeClient client = Connect(server);
  auto health = client.Call("health");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->rfind("ok serving ", 0), 0u) << *health;
  EXPECT_EQ(server.counters().quarantined_journals.load(), 1u);

  // The corrupt journal was moved aside, a fresh one opened, and the
  // served state reverted to the base (the journaled-only records were
  // unrecoverable — the documented degraded tradeoff).
  EXPECT_TRUE(std::filesystem::exists(journal + ".quarantine"));
  auto est = client.Call("estimate alpha a a/b a/b/c");
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(*est, Oracle({}, {"a", "a/b", "a/b/c"}));
  auto stats = client.Call("stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("\"quarantined\":true"), std::string::npos) << *stats;
  // The damage is in the first frame: there is no prefix to salvage.
  EXPECT_NE(stats->find("\"salvaged_records\":0"), std::string::npos)
      << *stats;

  // And updates still work on the fresh journal.
  auto resp = client.Call("update wait=1 add 2 0 a");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->rfind("ok applied=", 0), 0u) << *resp;

  ASSERT_TRUE(client.Call("shutdown").ok());
  server.Wait();
}

TEST_F(MaintServeTest, MidFileCorruptionKeepsTheAcknowledgedPrefix) {
  // Two acknowledged batches; then damage the SECOND batch's edge frame.
  // Recovery must replay the first batch (everything before the damage)
  // and nothing after it, even though a valid barrier frame follows.
  const LabelId a = *graph_.labels().Find("a");
  {
    ServeServer server(MaintOptions());
    ASSERT_TRUE(server.Start().ok());
    ServeClient client = Connect(server);
    ASSERT_TRUE(client.Call("update wait=1 add 2 0 a").ok());
    ASSERT_TRUE(client.Call("update wait=1 add 3 2 b").ok());
    ASSERT_TRUE(client.Call("shutdown").ok());
    server.Wait();
  }
  const std::string journal = (catalog_ / "maint" / "deltas.journal").string();
  auto bytes = ReadFileBytes(journal);
  ASSERT_TRUE(bytes.ok());
  // The first batch's bytes: header, its edge frame, its epoch barrier.
  std::string prefix(maint::kJournalMagic, sizeof(maint::kJournalMagic));
  maint::AppendJournalFrame(&prefix, maint::DeltaRecord::AddEdge(2, 0, a));
  maint::AppendJournalFrame(&prefix, maint::DeltaRecord::Barrier(1));
  ASSERT_EQ(bytes->compare(0, prefix.size(), prefix), 0);
  ASSERT_TRUE(FlipBit(&*bytes, prefix.size() + 4, 2).ok());  // its CRC
  ASSERT_TRUE(WriteFileBytes(journal, *bytes).ok());
  // The integrity scan `catalog verify` runs still fails the journal.
  EXPECT_EQ(maint::ScanDeltaJournal(journal).status().code(),
            StatusCode::kIOError);

  const std::vector<std::string> paths = {"a", "a/b", "a/b/c", "c"};
  const std::string salvaged = Oracle({{true, 2, 0, a}}, paths);
  {
    ServeServer server(MaintOptions());
    ASSERT_TRUE(server.Start().ok());
    ServeClient client = Connect(server);
    auto est = client.Call("estimate alpha a a/b a/b/c c");
    ASSERT_TRUE(est.ok());
    EXPECT_EQ(*est, salvaged);
    EXPECT_EQ(server.counters().quarantined_journals.load(), 1u);
    EXPECT_TRUE(std::filesystem::exists(journal + ".quarantine"));
    auto stats = client.Call("stats");
    ASSERT_TRUE(stats.ok());
    EXPECT_NE(stats->find("\"quarantined\":true"), std::string::npos)
        << *stats;
    EXPECT_NE(stats->find("\"salvaged_records\":2"), std::string::npos)
        << *stats;
    EXPECT_NE(stats->find("\"lost_bytes\":" +
                          std::to_string(bytes->size() - prefix.size())),
              std::string::npos)
        << *stats;
    ASSERT_TRUE(client.Call("shutdown").ok());
    server.Wait();
  }
  // The salvaged state became the new base: a second restart, on the
  // fresh journal, serves it unchanged.
  EXPECT_TRUE(maint::ScanDeltaJournal(journal).ok());
  ServeServer server(MaintOptions());
  ASSERT_TRUE(server.Start().ok());
  ServeClient client = Connect(server);
  auto est = client.Call("estimate alpha a a/b a/b/c c");
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(*est, salvaged);
  ASSERT_TRUE(client.Call("shutdown").ok());
  server.Wait();
}

TEST_F(MaintServeTest, MaintainedEntriesPersistAsV2AndServeMapped) {
  // Start from a v1 entry (alpha) and a text twin of it (beta). The
  // bootstrap Recover and every refresh re-persist both as binary v2,
  // and the daemon serves every one of them from the mapping.
  SaveEntry("beta", CatalogFormat::kText);
  const std::vector<std::string> paths = {"a", "a/b", "a/b/c", "c"};
  uint64_t misses_before = 0;
  auto expect_v2_mapped = [&](ServeClient& client,
                              const std::vector<maint::EdgeDelta>& deltas) {
    for (const char* name : {"alpha", "beta"}) {
      const std::string file = (catalog_ / name).string() + ".stats";
      auto format = SniffCatalogFile(file);
      ASSERT_TRUE(format.ok()) << format.status().ToString();
      EXPECT_EQ(*format, CatalogFormat::kBinaryV2) << name;
      auto est = client.Call(std::string("estimate ") + name +
                             " a a/b a/b/c c");
      ASSERT_TRUE(est.ok());
      EXPECT_EQ(*est, Oracle(deltas, paths)) << name;
    }
    auto stats = client.Call("stats");
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->find("\"mapped\":false"), std::string::npos) << *stats;
    size_t mapped = 0;
    for (size_t at = stats->find("\"mapped\":true"); at != std::string::npos;
         at = stats->find("\"mapped\":true", at + 1)) {
      ++mapped;
    }
    EXPECT_EQ(mapped, 2u) << *stats;
    const size_t key = stats->find("\"misses\":");
    ASSERT_NE(key, std::string::npos) << *stats;
    const uint64_t misses =
        std::stoull(stats->substr(key + std::strlen("\"misses\":")));
    EXPECT_GT(misses, misses_before) << *stats;
    misses_before = misses;
  };

  ServeServer server(MaintOptions());
  ASSERT_TRUE(server.Start().ok());
  ServeClient client = Connect(server);
  expect_v2_mapped(client, {});

  auto resp = client.Call("update wait=1 add 2 0 a");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->rfind("ok applied=1 ", 0), 0u) << *resp;
  const LabelId a = *graph_.labels().Find("a");
  expect_v2_mapped(client, {{true, 2, 0, a}});

  ASSERT_TRUE(client.Call("shutdown").ok());
  server.Wait();
}

TEST_F(MaintServeTest, TortureConcurrentEstimatesAgainstUpdateStreamAndRestart) {
  // The maintenance torture test. An update stream applies deltas one
  // waited batch at a time while estimator threads hammer the same entry.
  // Invariants:
  //   (1) every estimate response is bit-identical to the serial oracle
  //       of SOME applied prefix of the update stream (atomic snapshot
  //       pinning: never a torn mix, never a partial refresh);
  //   (2) after a daemon restart, estimates equal the FINAL prefix's
  //       oracle exactly (nothing acknowledged was lost).
  const LabelId a = *graph_.labels().Find("a");
  const LabelId b = *graph_.labels().Find("b");
  const LabelId c = *graph_.labels().Find("c");
  const std::vector<maint::EdgeDelta> stream = {
      {true, 2, 0, a},  {true, 3, 2, b},  {false, 3, 0, c},
      {true, 4, 5, c},  {false, 0, 1, a}, {true, 5, 0, a},
      {true, 0, 4, b},  {false, 2, 3, b}, {true, 6, 7, c},
      {true, 7, 0, a},
  };
  const std::vector<std::string> paths = {"a", "a/b", "b/c", "a/b/c", "c"};
  const std::string query = "estimate alpha a a/b b/c a/b/c c";

  // Precompute the oracle of every prefix (0..N deltas applied).
  std::vector<std::string> prefix_oracles;
  for (size_t n = 0; n <= stream.size(); ++n) {
    prefix_oracles.push_back(Oracle(
        std::vector<maint::EdgeDelta>(stream.begin(), stream.begin() + n),
        paths));
  }

  // A worker owns one connection at a time, and every client below keeps
  // its connection open: one worker per estimator plus one for the
  // updater, or the updater can queue behind estimators that never
  // disconnect and its wait=1 call times out.
  constexpr int kEstimators = 3;
  ServeOptions options = MaintOptions();
  options.num_workers = kEstimators + 1;
  ServeServer server(options);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> done{false};
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> estimates_served{0};
  std::vector<std::string> unexpected;
  std::mutex unexpected_mu;

  std::vector<std::thread> estimators;
  // Stops and joins the estimators on every exit path: a failed ASSERT
  // below then reports, where destroying joinable threads would abort the
  // whole binary.
  class JoinOnExit {
   public:
    JoinOnExit(std::atomic<bool>& done, std::vector<std::thread>& threads)
        : done_(done), threads_(threads) {}
    JoinOnExit(const JoinOnExit&) = delete;
    JoinOnExit& operator=(const JoinOnExit&) = delete;
    ~JoinOnExit() {
      done_.store(true, std::memory_order_release);
      for (auto& t : threads_) {
        if (t.joinable()) t.join();
      }
    }

   private:
    std::atomic<bool>& done_;
    std::vector<std::thread>& threads_;
  } join_estimators(done, estimators);
  for (int t = 0; t < kEstimators; ++t) {
    estimators.emplace_back([&] {
      auto client = ServeClient::Connect(server.options().socket_path);
      if (!client.ok()) return;
      while (!done.load(std::memory_order_acquire)) {
        auto resp = client->Call(query);
        if (!resp.ok()) return;  // daemon gone (shutdown race) — fine
        if (resp->rfind("err ", 0) == 0) {
          // Only retriable taxonomy errors are acceptable under load.
          if (ClassifyResponse(*resp) != ResponseClass::kRetriableError) {
            mismatches.fetch_add(1);
          }
          continue;
        }
        estimates_served.fetch_add(1);
        bool known = false;
        for (const std::string& oracle : prefix_oracles) {
          if (*resp == oracle) {
            known = true;
            break;
          }
        }
        if (!known) {
          mismatches.fetch_add(1);
          std::lock_guard<std::mutex> lock(unexpected_mu);
          if (unexpected.size() < 3) unexpected.push_back(*resp);
        }
      }
    });
  }

  {
    ServeClient updater = Connect(server);
    for (const maint::EdgeDelta& d : stream) {
      std::string req = std::string("update wait=1 ") +
                        (d.add ? "add " : "remove ") + std::to_string(d.src) +
                        ' ' + std::to_string(d.dst) + ' ' +
                        graph_.labels().Name(d.label);
      auto resp = updater.Call(req);
      ASSERT_TRUE(resp.ok()) << req << ": " << resp.status().ToString();
      ASSERT_EQ(resp->rfind("ok applied=1 ", 0), 0u) << req << ": " << *resp;
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& t : estimators) t.join();

  EXPECT_EQ(mismatches.load(), 0u)
      << (unexpected.empty() ? "" : "e.g. " + unexpected[0]);
  EXPECT_GT(estimates_served.load(), 0u);

  // Final state, same daemon.
  {
    ServeClient client = Connect(server);
    auto final_est = client.Call(query);
    ASSERT_TRUE(final_est.ok());
    EXPECT_EQ(*final_est, prefix_oracles.back());
    ASSERT_TRUE(client.Call("shutdown").ok());
  }
  server.Wait();

  // Restart: the journal replays and the final state is exact.
  ServeServer reborn(MaintOptions());
  ASSERT_TRUE(reborn.Start().ok());
  ServeClient client = Connect(reborn);
  auto recovered = client.Call(query);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(*recovered, prefix_oracles.back());
  ASSERT_TRUE(client.Call("shutdown").ok());
  reborn.Wait();
}

}  // namespace
}  // namespace serve
}  // namespace pathest
