// Tests for the estimation service (serve/): the wire protocol, the
// bounded admission queue, server lifecycle, typed error taxonomy,
// deadlines, load shedding, degraded-mode startup and reload — and the
// torture test: concurrent estimate clients racing a reload storm with
// injected corruption, where every response must be bit-identical to a
// serial oracle of SOME published catalog version (atomic snapshot
// pinning: never a torn mix), and every failure must be a typed error.

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/serialize.h"
#include "ordering/factory.h"
#include "path/label_path.h"
#include "path/selectivity.h"
#include "serve/bounded_queue.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "test_util.h"
#include "util/fault_injection.h"

namespace pathest {
namespace serve {
namespace {

using testing_util::SmallGraph;

// ---------------------------------------------------------------------------
// Protocol unit tests (no sockets).

TEST(ProtocolTest, ParsesCommandOptionsAndArgs) {
  auto req = ParseRequest("estimate deadline_ms=250 probe a/b c");
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req->command, "estimate");
  EXPECT_EQ(req->Option("deadline_ms"), "250");
  ASSERT_EQ(req->args.size(), 3u);
  EXPECT_EQ(req->args[0], "probe");
  EXPECT_EQ(req->args[1], "a/b");
  EXPECT_EQ(req->args[2], "c");
}

TEST(ProtocolTest, OptionsStopAtFirstPositional) {
  // key=value AFTER a positional is a positional (a path may contain '=').
  auto req = ParseRequest("estimate probe x=1");
  ASSERT_TRUE(req.ok());
  EXPECT_TRUE(req->options.empty());
  ASSERT_EQ(req->args.size(), 2u);
  EXPECT_EQ(req->args[1], "x=1");
}

TEST(ProtocolTest, RejectsEmptyAndMalformed) {
  EXPECT_FALSE(ParseRequest("").ok());
  EXPECT_FALSE(ParseRequest("   ").ok());
  EXPECT_FALSE(ParseRequest("estimate =bare").ok());
}

TEST(ProtocolTest, RetriabilityTaxonomy) {
  EXPECT_TRUE(IsRetriableCode(StatusCode::kResourceExhausted));
  EXPECT_TRUE(IsRetriableCode(StatusCode::kDeadlineExceeded));
  EXPECT_TRUE(IsRetriableCode(StatusCode::kUnavailable));
  EXPECT_FALSE(IsRetriableCode(StatusCode::kNotFound));
  EXPECT_FALSE(IsRetriableCode(StatusCode::kInvalidArgument));
  EXPECT_FALSE(IsRetriableCode(StatusCode::kIOError));
}

TEST(ProtocolTest, ErrorResponsesAreOneSanitizedLine) {
  const std::string line =
      FormatErrorResponse(Status::NotFound("multi\nline\rmessage"));
  EXPECT_EQ(line.rfind("err NotFound fatal ", 0), 0u) << line;
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_EQ(line.find('\r'), std::string::npos);

  const std::string shed =
      FormatErrorResponse(Status::ResourceExhausted("queue full"));
  EXPECT_EQ(shed, "err ResourceExhausted retriable queue full");
}

TEST(ProtocolTest, EstimateValuesRoundTripExactly) {
  for (double v : {0.0, 1.0, 1.0 / 3.0, 127.76923076923077, 1e300, 6.25e-4}) {
    std::string s;
    AppendEstimateValue(&s, v);
    EXPECT_EQ(std::stod(s), v) << s;
  }
}

TEST(ProtocolTest, ParseU64OptionValidation) {
  auto ok = ParseU64Option("ms", "250");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 250u);
  EXPECT_FALSE(ParseU64Option("ms", "").ok());
  EXPECT_FALSE(ParseU64Option("ms", "12x").ok());
  EXPECT_FALSE(ParseU64Option("ms", "-1").ok());
  EXPECT_FALSE(ParseU64Option("ms", "99999999999999999999999").ok());
}

// ---------------------------------------------------------------------------
// Bounded queue.

TEST(BoundedQueueTest, ShedsWhenFullAndDrainsAfterStop) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));  // full: the caller sheds
  q.Stop();
  EXPECT_FALSE(q.TryPush(4));  // stopped: rejected
  // A stopped queue still hands out what it holds — that is what lets
  // shutdown answer queued connections instead of dropping them.
  auto a = q.Pop();
  auto b = q.Pop();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a, 1);
  EXPECT_EQ(*b, 2);
  EXPECT_FALSE(q.Pop().has_value());  // stopped AND empty
}

TEST(BoundedQueueTest, StopWakesBlockedConsumers) {
  BoundedQueue<int> q(4);
  std::atomic<int> woke{0};
  std::vector<std::thread> consumers;
  for (int i = 0; i < 3; ++i) {
    consumers.emplace_back([&] {
      while (q.Pop().has_value()) {
      }
      woke.fetch_add(1);
    });
  }
  q.TryPush(7);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  q.Stop();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(woke.load(), 3);
}

TEST(BoundedQueueTest, ConcurrentProducersAndConsumersLoseNothing) {
  BoundedQueue<int> q(8);
  constexpr int kPerProducer = 200;
  std::atomic<int> consumed{0};
  std::atomic<int> pushed{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < 2; ++p) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        int item = i;  // TryPush takes an rvalue; a failed push leaves it
        while (!q.TryPush(std::move(item))) std::this_thread::yield();
        pushed.fetch_add(1);
      }
    });
  }
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&] {
      while (q.Pop().has_value()) consumed.fetch_add(1);
    });
  }
  // Let producers finish, then stop; consumers must drain every item.
  for (int i = 0; i < 2; ++i) threads[i].join();
  q.Stop();
  for (size_t i = 2; i < threads.size(); ++i) threads[i].join();
  EXPECT_EQ(pushed.load(), 2 * kPerProducer);
  EXPECT_EQ(consumed.load(), 2 * kPerProducer);
}

// ---------------------------------------------------------------------------
// Server fixture: catalogs on disk, a serial oracle, and short-path
// sockets under a per-test temp root.

class ServeTest : public ::testing::Test {
 protected:
  ServeTest() : graph_(SmallGraph()) {
    auto truth = ComputeSelectivities(graph_, 3);
    PATHEST_CHECK(truth.ok(), "selectivities failed");
    truth_ = std::make_unique<SelectivityMap>(std::move(*truth));
    static std::atomic<int> counter{0};
    root_ = std::filesystem::temp_directory_path() /
            ("pathest_serve_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter.fetch_add(1)));
    std::filesystem::create_directories(root_);
  }

  ~ServeTest() override {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }

  // Writes `<dir>/<name>.stats` built with the given knobs; different
  // (type, beta) pairs yield observably different estimators, which is how
  // the reload tests tell catalog versions apart.
  std::filesystem::path WriteEntry(const std::filesystem::path& dir,
                                   const std::string& name, size_t beta,
                                   HistogramType type,
                                   CatalogFormat format =
                                       CatalogFormat::kBinary) {
    std::filesystem::create_directories(dir);
    auto ordering = MakeOrdering("sum-based", graph_, 3);
    PATHEST_CHECK(ordering.ok(), "ordering failed");
    auto est = PathHistogram::Build(*truth_, std::move(*ordering), type, beta);
    PATHEST_CHECK(est.ok(), "estimator build failed");
    const std::filesystem::path file = dir / (name + ".stats");
    PATHEST_CHECK(
        SavePathHistogram(*est, graph_, file.string(), format).ok(),
        "save failed");
    return file;
  }

  // The serial oracle: the exact response line a correct server must
  // produce for `estimate <entry> paths...` served from `stats_file`.
  std::string OracleResponse(const std::filesystem::path& stats_file,
                             const std::vector<std::string>& paths) {
    auto loaded = LoadPathHistogram(stats_file.string());
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

  ServeOptions BaseOptions(const std::filesystem::path& dir) {
    ServeOptions options;
    options.socket_path = (root_ / "s.sock").string();
    options.catalog_dir = dir.string();
    options.num_workers = 2;
    options.queue_capacity = 8;
    return options;
  }

  ServeClient Connect(const ServeServer& server) {
    auto client = ServeClient::Connect(server.options().socket_path);
    PATHEST_CHECK(client.ok(), "client connect failed");
    return std::move(*client);
  }

  static void CorruptFile(const std::filesystem::path& file) {
    auto bytes = ReadFileBytes(file.string());
    PATHEST_CHECK(bytes.ok(), "read for corruption failed");
    PATHEST_CHECK(FlipBit(&*bytes, bytes->size() / 2, 3).ok(), "flip failed");
    PATHEST_CHECK(WriteFileBytes(file.string(), *bytes).ok(),
                  "write corrupt failed");
  }

  Graph graph_;
  std::unique_ptr<SelectivityMap> truth_;
  std::filesystem::path root_;
};

TEST_F(ServeTest, ServesEstimatesBitIdenticalToSerialOracle) {
  const auto file =
      WriteEntry(root_ / "cat", "alpha", 6, HistogramType::kVOptimal);
  const std::vector<std::string> paths = {"a", "a/b", "a/b/c", "c"};
  const std::string oracle = OracleResponse(file, paths);

  ServeServer server(BaseOptions(root_ / "cat"));
  ASSERT_TRUE(server.Start().ok());
  ServeClient client = Connect(server);

  auto health = client.Call("health");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(*health, "ok serving entries=1 degraded=0 version=1");

  auto resp = client.Call("estimate alpha a a/b a/b/c c");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(*resp, oracle);

  auto bye = client.Call("shutdown");
  ASSERT_TRUE(bye.ok());
  EXPECT_EQ(*bye, "ok draining");
  server.Wait();
  EXPECT_GE(server.counters().requests.load(), 3u);
}

TEST_F(ServeTest, MappedV2EntriesServeBitIdenticalAndRepinOnReload) {
  // One binary-v2 entry (served zero-copy through the mmap cache) next to
  // one v1 entry (copying load): both must answer bit-identically to the
  // serial oracle, stats must tell the storage forms apart, and a reload
  // of unchanged files must RE-PIN the v2 mapping (a cache hit) rather
  // than re-read it.
  const auto v2_file = WriteEntry(root_ / "cat", "zed", 6,
                                  HistogramType::kVOptimal,
                                  CatalogFormat::kBinaryV2);
  const auto v1_file =
      WriteEntry(root_ / "cat", "old", 4, HistogramType::kEquiWidth);
  const std::vector<std::string> paths = {"a", "a/b", "a/b/c", "c"};
  const std::string v2_oracle = OracleResponse(v2_file, paths);
  const std::string v1_oracle = OracleResponse(v1_file, paths);

  ServeServer server(BaseOptions(root_ / "cat"));
  ASSERT_TRUE(server.Start().ok());
  {
    const auto state = server.registry_state();
    ASSERT_EQ(state->entries.size(), 2u);
    const auto& zed = state->entries.at("zed");
    const auto& old = state->entries.at("old");
    EXPECT_TRUE(zed->is_mapped());
    EXPECT_GT(zed->mapped_bytes(), 0u);
    EXPECT_LT(zed->resident_bytes(), zed->mapped_bytes());
    EXPECT_FALSE(old->is_mapped());
    EXPECT_EQ(old->mapped_bytes(), 0u);
    EXPECT_GT(old->resident_bytes(), 0u);
  }

  ServeClient client = Connect(server);
  auto v2_resp = client.Call("estimate zed a a/b a/b/c c");
  ASSERT_TRUE(v2_resp.ok());
  EXPECT_EQ(*v2_resp, v2_oracle);
  auto v1_resp = client.Call("estimate old a a/b a/b/c c");
  ASSERT_TRUE(v1_resp.ok());
  EXPECT_EQ(*v1_resp, v1_oracle);

  auto stats = client.Call("stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("\"mapped\":true"), std::string::npos);
  EXPECT_NE(stats->find("\"mapped\":false"), std::string::npos);
  EXPECT_NE(stats->find("\"mmap_cache\":{\"entries\":1"), std::string::npos);

  // Unchanged files: the reload's v2 open must be a hit on the same
  // mapping, and estimates stay bit-identical afterwards.
  auto reload = client.Call("reload");
  ASSERT_TRUE(reload.ok());
  EXPECT_EQ(reload->rfind("ok loaded=2", 0), 0u) << *reload;
  stats = client.Call("stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("\"hits\":1"), std::string::npos) << *stats;
  v2_resp = client.Call("estimate zed a a/b a/b/c c");
  ASSERT_TRUE(v2_resp.ok());
  EXPECT_EQ(*v2_resp, v2_oracle);

  // A REWRITTEN v2 file is a new generation: reload swaps it in (a miss,
  // not a hit) and serving follows the new bytes.
  WriteEntry(root_ / "cat", "zed", 9, HistogramType::kVOptimal,
             CatalogFormat::kBinaryV2);
  const std::string new_oracle =
      OracleResponse(root_ / "cat" / "zed.stats", paths);
  reload = client.Call("reload");
  ASSERT_TRUE(reload.ok());
  v2_resp = client.Call("estimate zed a a/b a/b/c c");
  ASSERT_TRUE(v2_resp.ok());
  EXPECT_EQ(*v2_resp, new_oracle);

  auto bye = client.Call("shutdown");
  ASSERT_TRUE(bye.ok());
  server.Wait();
}

TEST_F(ServeTest, FatalErrorsAreTypedAndKeepTheConnectionOpen) {
  WriteEntry(root_ / "cat", "alpha", 6, HistogramType::kVOptimal);
  ServeServer server(BaseOptions(root_ / "cat"));
  ASSERT_TRUE(server.Start().ok());
  ServeClient client = Connect(server);

  auto missing = client.Call("estimate nosuch a");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->rfind("err NotFound fatal ", 0), 0u) << *missing;

  auto bad_path = client.Call("estimate alpha not-a-label");
  ASSERT_TRUE(bad_path.ok());
  EXPECT_EQ(bad_path->rfind("err InvalidArgument fatal ", 0), 0u) << *bad_path;

  auto bad_cmd = client.Call("frobnicate");
  ASSERT_TRUE(bad_cmd.ok());
  EXPECT_EQ(bad_cmd->rfind("err InvalidArgument fatal ", 0), 0u) << *bad_cmd;

  auto bad_opt = client.Call("estimate deadline_ms=soon alpha a");
  ASSERT_TRUE(bad_opt.ok());
  EXPECT_EQ(bad_opt->rfind("err InvalidArgument fatal ", 0), 0u) << *bad_opt;

  // slowop is refused when test commands are disabled (the default).
  auto refused = client.Call("slowop ms=1");
  ASSERT_TRUE(refused.ok());
  EXPECT_EQ(refused->rfind("err InvalidArgument fatal ", 0), 0u) << *refused;

  // Five fatal errors later, the SAME connection still serves. Only the
  // malformed REQUESTS (unknown command, bad option, refused slowop)
  // count as invalid; NotFound/bad-path are well-formed requests that
  // failed.
  auto health = client.Call("health");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->rfind("ok serving ", 0), 0u) << *health;
  EXPECT_EQ(server.counters().invalid_requests.load(), 3u);
}

TEST_F(ServeTest, DeadlineExpiryIsRetriableDeadlineExceeded) {
  WriteEntry(root_ / "cat", "alpha", 6, HistogramType::kVOptimal);
  ServeServer server(BaseOptions(root_ / "cat"));
  ASSERT_TRUE(server.Start().ok());
  ServeClient client = Connect(server);

  // deadline_ms=0 has already expired at the first between-chunk check —
  // the deterministic way to exercise expiry without a huge workload.
  auto resp = client.Call("estimate deadline_ms=0 alpha a a/b");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->rfind("err DeadlineExceeded retriable ", 0), 0u) << *resp;
  EXPECT_EQ(server.counters().deadline_exceeded.load(), 1u);

  // The expiry poisoned nothing: the next request on the same connection
  // (and the same worker scratch) serves normally.
  auto again = client.Call("estimate alpha a");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->rfind("ok ", 0), 0u) << *again;
}

TEST_F(ServeTest, OversizedRequestLineDrawsTypedErrorAndCloses) {
  WriteEntry(root_ / "cat", "alpha", 6, HistogramType::kVOptimal);
  ServeServer server(BaseOptions(root_ / "cat"));
  ASSERT_TRUE(server.Start().ok());

  auto fd = ConnectUnixSocket(server.options().socket_path);
  ASSERT_TRUE(fd.ok());
  // More bytes than kMaxRequestBytes with no newline: a protocol
  // violation, not a request. SendAll may fail midway once the server
  // gives up and closes; the error line is still readable.
  std::string big(kMaxRequestBytes + 2, 'a');
  SendAll(fd->get(), big);
  LineReader reader(fd->get(), /*idle_timeout_ms=*/10000, kMaxRequestBytes);
  std::string line;
  ASSERT_EQ(reader.ReadLine(&line), ReadLineResult::kLine);
  EXPECT_EQ(line.rfind("err InvalidArgument fatal ", 0), 0u) << line;
  EXPECT_EQ(reader.ReadLine(&line), ReadLineResult::kEof);
}

TEST_F(ServeTest, FullQueueShedsWithRetriableError) {
  WriteEntry(root_ / "cat", "alpha", 6, HistogramType::kVOptimal);
  ServeOptions options = BaseOptions(root_ / "cat");
  options.num_workers = 1;
  options.queue_capacity = 1;
  options.enable_test_commands = true;
  ServeServer server(options);
  ASSERT_TRUE(server.Start().ok());

  // A occupies the only worker (slowop holds it), B fills the only queue
  // slot, so C MUST be shed at accept with the typed retriable error.
  auto a = ConnectUnixSocket(options.socket_path);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(SendAll(a->get(), "slowop ms=2000\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  auto b = ConnectUnixSocket(options.socket_path);
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(SendAll(b->get(), "health\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  ServeClient c = Connect(server);
  auto shed = c.Call("health");
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed->rfind("err ResourceExhausted retriable ", 0), 0u) << *shed;
  EXPECT_EQ(server.counters().connections_shed.load(), 1u);

  // A's slowop completes; once A DISCONNECTS (a worker owns a connection
  // for its lifetime), B is served from the queue: shedding rejected the
  // overflow, not the queued work.
  LineReader read_a(a->get(), 10000, kMaxRequestBytes);
  std::string line;
  ASSERT_EQ(read_a.ReadLine(&line), ReadLineResult::kLine);
  EXPECT_EQ(line, "ok slept");
  a->reset();
  LineReader read_b(b->get(), 10000, kMaxRequestBytes);
  ASSERT_EQ(read_b.ReadLine(&line), ReadLineResult::kLine);
  EXPECT_EQ(line.rfind("ok serving ", 0), 0u) << line;
}

TEST_F(ServeTest, StartsDegradedWhenAnEntryIsCorrupt) {
  WriteEntry(root_ / "cat", "alpha", 6, HistogramType::kVOptimal);
  const auto broken =
      WriteEntry(root_ / "cat", "broken", 4, HistogramType::kEquiWidth);
  CorruptFile(broken);

  ServeServer server(BaseOptions(root_ / "cat"));
  ASSERT_TRUE(server.Start().ok());  // degraded start beats no start
  ASSERT_EQ(server.initial_report().failures.size(), 1u);
  EXPECT_EQ(server.initial_report().loaded,
            std::vector<std::string>{"alpha"});

  ServeClient client = Connect(server);
  auto health = client.Call("health");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(*health, "ok serving entries=1 degraded=1 version=1");
  auto good = client.Call("estimate alpha a");
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->rfind("ok ", 0), 0u) << *good;
  auto bad = client.Call("estimate broken a");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->rfind("err NotFound fatal ", 0), 0u) << *bad;

  // The quarantine is visible to monitoring via stats' last_reload report.
  auto stats = client.Call("stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("\"corrupt\":1"), std::string::npos) << *stats;
}

TEST_F(ServeTest, StartsDegradedWhenAnEntryHasAnUnservableShape) {
  // A well-formed text entry whose num-card domain (20 labels, k = 16)
  // overflows u64 must quarantine through the shape gate, not abort the
  // daemon at startup; the healthy entry serves bit-identically.
  const auto healthy =
      WriteEntry(root_ / "cat", "alpha", 6, HistogramType::kVOptimal);
  const std::vector<std::string> paths = {"a", "a/b", "a/b/c", "c"};
  const std::string oracle = OracleResponse(healthy, paths);
  {
    std::string text =
        "pathest-histogram v1\nordering num-card\ntype v-optimal\nk 16\n"
        "labels 20";
    for (int i = 0; i < 20; ++i) text += " l" + std::to_string(i);
    text += "\ncardinalities";
    for (int i = 0; i < 20; ++i) text += " 1";
    text += "\nbuckets 1\n0 1000 0x0p+0 0x0p+0\n";
    ASSERT_TRUE(
        WriteFileBytes((root_ / "cat" / "overflow.stats").string(), text)
            .ok());
  }

  ServeServer server(BaseOptions(root_ / "cat"));
  ASSERT_TRUE(server.Start().ok());
  ASSERT_EQ(server.initial_report().failures.size(), 1u);
  EXPECT_NE(server.initial_report().failures[0].path.find("overflow.stats"),
            std::string::npos);
  EXPECT_NE(server.initial_report().failures[0].status.message().find(
                "overflows u64"),
            std::string::npos)
      << server.initial_report().failures[0].status.ToString();
  EXPECT_EQ(server.initial_report().loaded,
            std::vector<std::string>{"alpha"});

  ServeClient client = Connect(server);
  auto health = client.Call("health");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(*health, "ok serving entries=1 degraded=1 version=1");
  auto good = client.Call("estimate alpha a a/b a/b/c c");
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, oracle);
  auto bad = client.Call("estimate overflow l0");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->rfind("err NotFound fatal ", 0), 0u) << *bad;
  // A reload reads the entry through the same gate.
  auto reload = client.Call("reload");
  ASSERT_TRUE(reload.ok());
  EXPECT_NE(reload->find("quarantined=1"), std::string::npos) << *reload;
}

TEST_F(ServeTest, ReloadSwapsAtomicallyAndDegradesNeverOutages) {
  const std::vector<std::string> paths = {"a", "a/b", "a/b/c"};
  const auto v1 = WriteEntry(root_ / "v1", "probe", 6,
                             HistogramType::kVOptimal);
  const auto v2 = WriteEntry(root_ / "v2", "probe", 2,
                             HistogramType::kEquiWidth);
  const std::string oracle_v1 = OracleResponse(v1, paths);
  const std::string oracle_v2 = OracleResponse(v2, paths);
  ASSERT_NE(oracle_v1, oracle_v2) << "versions must be distinguishable";

  std::filesystem::create_directories(root_ / "live");
  const auto live = root_ / "live" / "probe.stats";
  std::filesystem::copy_file(v1, live);

  ServeServer server(BaseOptions(root_ / "live"));
  ASSERT_TRUE(server.Start().ok());
  ServeClient client = Connect(server);
  const std::string query = "estimate probe a a/b a/b/c";

  auto before = client.Call(query);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(*before, oracle_v1);

  // Healthy reload: the new snapshot swaps in.
  std::filesystem::copy_file(
      v2, live, std::filesystem::copy_options::overwrite_existing);
  auto reload = client.Call("reload");
  ASSERT_TRUE(reload.ok());
  EXPECT_EQ(*reload,
            "ok loaded=1 quarantined=0 kept_stale=0 removed=0 serving=1 "
            "degraded=0 version=2");
  auto after = client.Call(query);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, oracle_v2);

  // Corrupt reload: quarantined, and the PREVIOUS (v2) snapshot keeps
  // serving — degradation, not an outage.
  CorruptFile(live);
  auto degraded = client.Call("reload");
  ASSERT_TRUE(degraded.ok());
  EXPECT_EQ(*degraded,
            "ok loaded=0 quarantined=1 kept_stale=1 removed=0 serving=1 "
            "degraded=1 version=3");
  auto kept = client.Call(query);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(*kept, oracle_v2);
  auto health = client.Call("health");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(*health, "ok serving entries=1 degraded=1 version=3");

  // Unreadable-directory reload: a typed error, and NOTHING changes.
  auto nodir = client.Call("reload dir=" + (root_ / "nope").string());
  ASSERT_TRUE(nodir.ok());
  EXPECT_EQ(nodir->rfind("err ", 0), 0u) << *nodir;
  auto unchanged = client.Call(query);
  ASSERT_TRUE(unchanged.ok());
  EXPECT_EQ(*unchanged, oracle_v2);

  // A vanished file is a deliberate removal, not corruption: dropped.
  std::filesystem::remove(live);
  auto removed = client.Call("reload");
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed,
            "ok loaded=0 quarantined=0 kept_stale=0 removed=1 serving=0 "
            "degraded=0 version=4");
  auto gone = client.Call(query);
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(gone->rfind("err NotFound fatal ", 0), 0u) << *gone;
}

TEST_F(ServeTest, DrainAnswersOpenConnectionsAndJoinsCleanly) {
  WriteEntry(root_ / "cat", "alpha", 6, HistogramType::kVOptimal);
  ServeServer server(BaseOptions(root_ / "cat"));
  ASSERT_TRUE(server.Start().ok());
  ServeClient client = Connect(server);
  auto resp = client.Call("estimate alpha a");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->rfind("ok ", 0), 0u);

  server.RequestStop();
  server.Wait();
  server.Wait();  // idempotent

  // The idle connection was told why it is going away (a retriable
  // Unavailable) before the close; depending on timing the client may
  // instead observe the close first. Either way: no hang, no silence
  // followed by garbage.
  auto last = client.Call("health");
  if (last.ok()) {
    EXPECT_EQ(last->rfind("err Unavailable retriable ", 0), 0u) << *last;
  }
}

// ---------------------------------------------------------------------------
// The torture test. Three estimate clients hammer one entry while two
// reload threads rotate the live catalog file between v1 bytes, v2 bytes,
// and CORRUPT bytes (and issue `reload` each time, racing each other).
// Invariants:
//   * every estimate response is bit-identical to the serial oracle of v1
//     or of v2 — a torn mix or a garbage value is an instant failure
//     (corrupt content never serves: it quarantines and the previous
//     snapshot answers);
//   * every reload response is "ok ..." or the typed retriable conflict;
//   * nothing hangs: every thread joins, the server drains cleanly.

TEST_F(ServeTest, TortureConcurrentClientsReloadStormInjectedCorruption) {
  const std::vector<std::string> paths = {"a", "a/b", "a/b/c", "b/c", "c"};
  const auto v1 = WriteEntry(root_ / "v1", "probe", 6,
                             HistogramType::kVOptimal);
  const auto v2 = WriteEntry(root_ / "v2", "probe", 2,
                             HistogramType::kEquiWidth);
  const std::string oracle_v1 = OracleResponse(v1, paths);
  const std::string oracle_v2 = OracleResponse(v2, paths);
  ASSERT_NE(oracle_v1, oracle_v2);

  auto v1_bytes = ReadFileBytes(v1.string());
  auto v2_bytes = ReadFileBytes(v2.string());
  ASSERT_TRUE(v1_bytes.ok());
  ASSERT_TRUE(v2_bytes.ok());
  std::string corrupt_bytes = *v2_bytes;
  ASSERT_TRUE(FlipBit(&corrupt_bytes, corrupt_bytes.size() / 2, 5).ok());

  std::filesystem::create_directories(root_ / "live");
  const std::string live = (root_ / "live" / "probe.stats").string();
  ASSERT_TRUE(WriteFileBytes(live, *v1_bytes).ok());

  ServeOptions options = BaseOptions(root_ / "live");
  // Every client thread holds one persistent connection, so workers must
  // cover clients + reloaders; the queue covers transient bursts.
  options.num_workers = 6;
  options.queue_capacity = 16;
  ServeServer server(options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kEstimateClients = 3;
  constexpr int kEstimatesEach = 80;
  constexpr int kReloaders = 2;
  constexpr int kReloadsEach = 25;
  const std::string query = "estimate probe a a/b a/b/c b/c c";

  std::atomic<int> violations{0};
  std::mutex first_mu;
  std::string first_violation;
  auto record = [&](const std::string& what) {
    violations.fetch_add(1);
    std::lock_guard<std::mutex> lock(first_mu);
    if (first_violation.empty()) first_violation = what;
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < kEstimateClients; ++c) {
    threads.emplace_back([&] {
      auto client = ServeClient::Connect(options.socket_path);
      if (!client.ok()) {
        record("connect: " + client.status().ToString());
        return;
      }
      for (int i = 0; i < kEstimatesEach; ++i) {
        auto resp = client->Call(query);
        if (!resp.ok()) {
          record("transport: " + resp.status().ToString());
          return;
        }
        // THE invariant: bit-identical to one version's serial oracle.
        if (*resp != oracle_v1 && *resp != oracle_v2) {
          record("torn/garbage response: " + *resp);
        }
        if (i % 10 == 0) {
          auto health = client->Call("health");
          if (!health.ok() || health->rfind("ok serving ", 0) != 0) {
            record("health during storm");
          }
        }
      }
    });
  }
  for (int r = 0; r < kReloaders; ++r) {
    threads.emplace_back([&, r] {
      auto client = ServeClient::Connect(options.socket_path);
      if (!client.ok()) {
        record("reloader connect: " + client.status().ToString());
        return;
      }
      const std::string* rotation[] = {&*v1_bytes, &corrupt_bytes,
                                       &*v2_bytes};
      for (int i = 0; i < kReloadsEach; ++i) {
        // Plain non-atomic writes on purpose: a reload may even catch a
        // HALF-written file — that is just one more corruption to survive.
        (void)WriteFileBytes(live, *rotation[(i + r) % 3]);
        auto resp = client->Call("reload");
        if (!resp.ok()) {
          record("reload transport: " + resp.status().ToString());
          return;
        }
        if (resp->rfind("ok ", 0) != 0 &&
            resp->rfind("err Unavailable retriable ", 0) != 0) {
          record("reload: " + *resp);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(violations.load(), 0) << first_violation;
  EXPECT_GE(server.counters().estimate_requests.load(),
            static_cast<uint64_t>(kEstimateClients * kEstimatesEach));
  EXPECT_GE(server.counters().reloads.load(), 1u);
  EXPECT_EQ(server.counters().connections_shed.load(), 0u);

  server.RequestStop();
  server.Wait();
}

}  // namespace
}  // namespace serve
}  // namespace pathest
