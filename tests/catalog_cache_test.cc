// Tests for the bounded-residency snapshot cache (core/catalog_cache.h):
// re-pin identity on unchanged files, LRU eviction under a byte budget,
// pinned-entry survival, and a multithreaded eviction/re-pin torture run
// checked against a serial oracle while estimates are in flight.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/catalog_cache.h"
#include "core/mapped_catalog.h"
#include "core/serialize.h"
#include "ordering/factory.h"
#include "path/selectivity.h"
#include "test_util.h"
#include "util/safe_io.h"

namespace pathest {
namespace {

namespace fs = std::filesystem;
using testing_util::SmallGraph;

// Scratch-carrying estimate helper (Estimator::Estimate is the
// allocation-free serving API; tests just want the value).
double EstimateOne(const Estimator& est, const LabelPath& p,
                   RankScratch& scratch) {
  return est.Estimate(p, scratch);
}

class CatalogCacheTest : public ::testing::Test {
 protected:
  CatalogCacheTest() : graph_(SmallGraph()) {
    dir_ = fs::temp_directory_path() / "pathest_cache_test";
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~CatalogCacheTest() override { fs::remove_all(dir_); }

  // Saves a fresh v2 catalog under `name` and returns its path. Sections
  // are packed, so the size grows with beta and the ordering: budgets are
  // sized from the files themselves.
  std::string SaveEntry(const std::string& name, const std::string& method,
                        size_t k, size_t beta) {
    auto map = ComputeSelectivities(graph_, k);
    PATHEST_CHECK(map.ok(), "selectivities failed");
    auto ordering = MakeOrdering(method, graph_, k);
    PATHEST_CHECK(ordering.ok(), "ordering failed");
    auto est = PathHistogram::Build(*map, std::move(*ordering),
                                    HistogramType::kVOptimal, beta);
    PATHEST_CHECK(est.ok(), "build failed");
    const std::string path = (dir_ / name).string();
    PATHEST_CHECK(
        SavePathHistogram(*est, graph_, path, CatalogFormat::kBinaryV2).ok(),
        "save failed");
    return path;
  }

  Graph graph_;
  fs::path dir_;
};

TEST_F(CatalogCacheTest, UnchangedFileRepinsTheSameMapping) {
  const std::string path = SaveEntry("a.stats", "sum-based", 3, 6);
  CatalogCache cache;
  auto first = cache.GetOrOpen(path);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = cache.GetOrOpen(path);
  ASSERT_TRUE(second.ok());
  // Pointer identity IS the contract: a reload of an unchanged entry must
  // not re-read a byte, just re-pin.
  EXPECT_EQ(first->get(), second->get());
  const CatalogCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.mapped_bytes, (*first)->mapped_bytes());
  ASSERT_EQ(stats.per_entry.size(), 1u);
  EXPECT_TRUE(stats.per_entry[0].pinned);  // we hold two refs right here
  EXPECT_GT(stats.per_entry[0].resident_bytes, 0u);
  EXPECT_LT(stats.per_entry[0].resident_bytes,
            stats.per_entry[0].mapped_bytes);
}

TEST_F(CatalogCacheTest, RewrittenFileIsANewGeneration) {
  const std::string path = SaveEntry("a.stats", "sum-based", 3, 6);
  CatalogCache cache;
  auto first = cache.GetOrOpen(path);
  ASSERT_TRUE(first.ok());
  const FileId old_id = (*first)->file_id();
  // Rewrite with different content (different beta → different bytes).
  SaveEntry("a.stats", "sum-based", 3, 8);
  auto second = cache.GetOrOpen(path);
  ASSERT_TRUE(second.ok());
  EXPECT_NE(first->get(), second->get());
  EXPECT_FALSE((*second)->file_id() == old_id);
  EXPECT_EQ(cache.Stats().misses, 2u);
  EXPECT_EQ(cache.Stats().entries, 1u);
  // The displaced mapping still serves its old bytes while we pin it.
  EXPECT_EQ((*first)->histogram_type(), HistogramType::kVOptimal);
}

TEST_F(CatalogCacheTest, LruEvictionUnderBudget) {
  std::vector<std::string> paths;
  for (int i = 0; i < 4; ++i) {
    paths.push_back(SaveEntry("e" + std::to_string(i) + ".stats",
                              "sum-based", 3, 6));
  }
  const size_t one = fs::file_size(paths[0]);
  // Budget for two entries; all four files are the same size.
  for (const std::string& p : paths) ASSERT_EQ(fs::file_size(p), one) << p;
  CatalogCache cache(2 * one);
  for (const std::string& p : paths) {
    auto e = cache.GetOrOpen(p);
    ASSERT_TRUE(e.ok()) << e.status().ToString();
    // e drops at scope end: every entry is unpinned and evictable.
  }
  const CatalogCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_LE(stats.mapped_bytes, 2 * one);
  // LRU: the two most recently opened survive.
  std::vector<std::string> kept;
  for (const auto& e : stats.per_entry) kept.push_back(e.path);
  EXPECT_EQ(kept, (std::vector<std::string>{paths[2], paths[3]}));
  // Touching e2 then inserting a new entry must evict e3, not e2.
  ASSERT_TRUE(cache.GetOrOpen(paths[2]).ok());
  ASSERT_TRUE(cache.GetOrOpen(paths[0]).ok());
  std::vector<std::string> kept2;
  for (const auto& e : cache.Stats().per_entry) kept2.push_back(e.path);
  EXPECT_EQ(kept2, (std::vector<std::string>{paths[0], paths[2]}));
}

TEST_F(CatalogCacheTest, PinnedSnapshotsSurviveBudgetPressure) {
  std::vector<std::string> paths;
  for (int i = 0; i < 3; ++i) {
    paths.push_back(SaveEntry("p" + std::to_string(i) + ".stats",
                              "sum-based", 3, 6));
  }
  // A budget of ZERO: nothing unpinned may stay resident at all.
  CatalogCache cache(0);
  auto pinned = cache.GetOrOpen(paths[0]);
  ASSERT_TRUE(pinned.ok());
  for (const std::string& p : paths) {
    auto e = cache.GetOrOpen(p);
    ASSERT_TRUE(e.ok());
  }
  const CatalogCacheStats stats = cache.Stats();
  // The pinned entry survives — over budget, but NEVER evicted while
  // references exist outside the cache. (The most recent insertion also
  // remains: it was pinned by its own caller at insertion time, and
  // eviction sweeps run at insertions only.)
  ASSERT_EQ(stats.entries, 2u);
  bool pinned_survived = false;
  for (const auto& e : stats.per_entry) {
    if (e.path == paths[0]) {
      pinned_survived = true;
      EXPECT_TRUE(e.pinned);
    }
  }
  EXPECT_TRUE(pinned_survived);
  // The pinned mapping keeps serving correct estimates under pressure.
  PathSpace space(graph_.num_labels(), 3);
  RankScratch scratch;
  space.ForEach([&](const LabelPath& p) {
    (void)EstimateOne((*pinned)->estimator(), p, scratch);
  });
  // Release the pin: the next insertion sweep evicts it.
  pinned->reset();
  auto e = cache.GetOrOpen(paths[1]);
  ASSERT_TRUE(e.ok());
  const CatalogCacheStats after = cache.Stats();
  ASSERT_EQ(after.entries, 1u);
  EXPECT_EQ(after.per_entry[0].path, paths[1]);
}

TEST_F(CatalogCacheTest, OpenFailuresLeaveTheCacheConsistent) {
  const std::string path = SaveEntry("a.stats", "sum-based", 3, 6);
  CatalogCache cache;
  EXPECT_EQ(cache.GetOrOpen((dir_ / "missing").string()).status().code(),
            StatusCode::kNotFound);
  // Corrupt file: admission checksum rejects, cache stays usable.
  const std::string bad = (dir_ / "bad.stats").string();
  fs::copy_file(path, bad);
  {
    std::fstream f(bad, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(bad) - 7));
    char byte;
    f.read(&byte, 1);
    f.seekp(-1, std::ios::cur);
    byte ^= 0x40;
    f.write(&byte, 1);
  }
  EXPECT_EQ(cache.GetOrOpen(bad).status().code(), StatusCode::kIOError);
  EXPECT_EQ(cache.Stats().entries, 0u);
  auto good = cache.GetOrOpen(path);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(cache.Stats().entries, 1u);
}

// Eviction/re-pin torture: reader threads estimate through cache-pinned
// snapshots while a writer thread keeps rewriting one file and a churn
// thread cycles other entries through a tiny budget (forcing constant
// eviction and re-open). Every estimate observed must match the serial
// oracle for SOME complete generation — never a torn or stale-mapped mix.
TEST_F(CatalogCacheTest, EvictionRepinTortureMatchesSerialOracle) {
  const size_t k = 3;
  // Two generations of the contended entry with DIFFERENT orderings — the
  // ordering name is the generation discriminator a reader can recover
  // from a pinned snapshot no matter how the file has moved on since.
  const std::string hot = SaveEntry("hot.stats", "sum-based", k, 6);
  std::string gen_a, gen_b;
  ASSERT_TRUE(ReadFileToString(hot, &gen_a).ok());
  SaveEntry("hot.stats", "num-card", k, 6);
  ASSERT_TRUE(ReadFileToString(hot, &gen_b).ok());
  std::vector<std::string> churn;
  for (int i = 0; i < 3; ++i) {
    // Sum-based churn entries: at least as large as the smaller hot
    // generation, so no two entries share the one-entry budget below.
    churn.push_back(SaveEntry("churn" + std::to_string(i) + ".stats",
                              "sum-based", k, 4 + i));
  }

  // Serial oracle: full-domain estimates for both generations.
  PathSpace space(graph_.num_labels(), k);
  std::vector<LabelPath> domain;
  space.ForEach([&](const LabelPath& p) { domain.push_back(p); });
  auto oracle_for = [&](const std::string& bytes) {
    const std::string tmp = (dir_ / "oracle.stats").string();
    PATHEST_CHECK(AtomicWriteFile(tmp, bytes).ok(), "oracle write");
    auto loaded = LoadPathHistogram(tmp);
    PATHEST_CHECK(loaded.ok(), "oracle load");
    std::vector<double> out(domain.size());
    for (size_t i = 0; i < domain.size(); ++i) {
      out[i] = loaded->estimator.Estimate(domain[i]);
    }
    return out;
  };
  const std::vector<double> oracle_a = oracle_for(gen_a);
  const std::vector<double> oracle_b = oracle_for(gen_b);

  // Budget of one entry — the largest — that no two entries fit in: the
  // churn thread's opens constantly evict the hot entry whenever it is
  // unpinned.
  std::vector<size_t> sizes = {gen_a.size(), gen_b.size()};
  for (const std::string& p : churn) sizes.push_back(fs::file_size(p));
  std::sort(sizes.begin(), sizes.end());
  ASSERT_GT(sizes[0] + sizes[1], sizes.back())
      << "the budget must hold one entry, never two";
  CatalogCache cache(sizes.back());
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::thread writer([&] {
    bool use_a = false;
    while (!stop.load(std::memory_order_relaxed)) {
      PATHEST_CHECK(
          AtomicWriteFile(hot, use_a ? gen_a : gen_b).ok(), "rewrite");
      use_a = !use_a;
      std::this_thread::yield();
    }
  });
  std::thread churner([&] {
    size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      (void)cache.GetOrOpen(churn[i++ % churn.size()]);
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      RankScratch scratch;
      while (!stop.load(std::memory_order_relaxed)) {
        auto entry = cache.GetOrOpen(hot);
        if (!entry.ok()) continue;  // raced a mid-rename stat; try again
        // Pin held across the whole sweep: eviction/rewrite during the
        // sweep must not perturb a single estimate.
        const Estimator& est = (*entry)->estimator();
        const bool is_a = (*entry)->ordering_name() == "sum-based";
        const std::vector<double>& oracle = is_a ? oracle_a : oracle_b;
        for (size_t i = 0; i < domain.size(); ++i) {
          if (est.Estimate(domain[i], scratch) != oracle[i]) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  stop.store(true);
  writer.join();
  churner.join();
  for (std::thread& r : readers) r.join();

  EXPECT_EQ(failures.load(), 0);
  const CatalogCacheStats stats = cache.Stats();
  // The torture must actually have exercised both machineries.
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
}

}  // namespace
}  // namespace pathest
