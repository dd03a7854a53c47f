// Tests for the catalog-directory layer (core/catalog.h) and the serving
// loader built on it (serve/snapshot_registry.h): what counts as an entry,
// the graph-free verify walk with its per-entry format detail, the JSON
// report shape, v2 entries served mapped beside copied text/v1 entries,
// and NotFound on a missing directory from every loader.

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <iterator>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/catalog.h"
#include "core/catalog_cache.h"
#include "core/mapped_catalog.h"
#include "core/serialize.h"
#include "ordering/factory.h"
#include "path/selectivity.h"
#include "serve/snapshot_registry.h"
#include "test_util.h"
#include "util/crc32c.h"

namespace pathest {
namespace {

namespace fs = std::filesystem;
using testing_util::SmallGraph;

class CatalogTest : public ::testing::Test {
 protected:
  CatalogTest() : graph_(SmallGraph()) {
    dir_ = fs::temp_directory_path() /
           ("pathest_catalog_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    auto map = ComputeSelectivities(graph_, 3);
    PATHEST_CHECK(map.ok(), "selectivities failed");
    auto ordering = MakeOrderingWithSelectivities("sum-based", graph_, 3, *map);
    PATHEST_CHECK(ordering.ok(), "ordering failed");
    auto est = PathHistogram::Build(*map, std::move(*ordering),
                                    HistogramType::kVOptimal, 8);
    PATHEST_CHECK(est.ok(), "estimator failed");
    estimator_ = std::make_unique<PathHistogram>(std::move(*est));
  }

  ~CatalogTest() override { fs::remove_all(dir_); }

  // Persists the fixture's estimator as <dir>/<name>.stats in `format`.
  std::string Save(const std::string& name, CatalogFormat format) {
    const std::string path = (dir_ / (name + ".stats")).string();
    PATHEST_CHECK(SavePathHistogram(*estimator_, graph_, path, format).ok(),
                  "save failed");
    return path;
  }

  // One entry per format: text, binary v1, binary v2.
  void SaveEveryFormat() {
    Save("t", CatalogFormat::kText);
    Save("v1", CatalogFormat::kBinary);
    Save("v2", CatalogFormat::kBinaryV2);
  }

  Graph graph_;
  fs::path dir_;
  std::unique_ptr<PathHistogram> estimator_;
};

TEST_F(CatalogTest, EntryPathsAreSortedStatsFilesOnly) {
  Save("b", CatalogFormat::kText);
  Save("a", CatalogFormat::kBinaryV2);
  std::ofstream(dir_ / "notes.txt") << "not an entry\n";
  fs::create_directories(dir_ / "dir.stats");  // a directory, not a file
  auto paths = ListCatalogEntryPaths(dir_.string());
  ASSERT_TRUE(paths.ok()) << paths.status().ToString();
  EXPECT_EQ(*paths, (std::vector<std::string>{(dir_ / "a.stats").string(),
                                              (dir_ / "b.stats").string()}));
}

TEST_F(CatalogTest, VerifyReportsFormatAndAlignmentPerEntry) {
  SaveEveryFormat();
  auto report = VerifyCatalogDir(dir_.string());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->fully_healthy());
  EXPECT_EQ(report->loaded, (std::vector<std::string>{"t", "v1", "v2"}));
  ASSERT_EQ(report->entries.size(), 3u);
  EXPECT_EQ(report->entries[0].format, "text");
  EXPECT_EQ(report->entries[1].format, "binary");
  EXPECT_EQ(report->entries[2].format, "binary-v2");
  EXPECT_FALSE(report->entries[0].aligned);
  EXPECT_FALSE(report->entries[1].aligned);
  EXPECT_TRUE(report->entries[2].aligned);
  EXPECT_EQ(report->entries[0].version, 0u);
  EXPECT_EQ(report->entries[1].version, binfmt::kVersion);
  EXPECT_EQ(report->entries[2].version, binfmt::kVersionV2);

  const std::string json = CatalogLoadReportToJson(*report, dir_.string());
  EXPECT_NE(json.find("\"ok\":3,\"corrupt\":0,\"fully_healthy\":true"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("{\"name\":\"v2\",\"format\":\"binary-v2\","
                      "\"aligned\":true,\"version\":" +
                      std::to_string(binfmt::kVersionV2) + "}"),
            std::string::npos)
      << json;
}

TEST_F(CatalogTest, EveryLoadedGoldenHasItsEntryRow) {
  // Each committed golden, plus a text entry, reported from the one read
  // that decoded it: every loaded name has an entries row, in the same
  // order, with the format and header version of those bytes.
  struct Want {
    const char* name;
    const char* format;
    uint32_t version;
  };
  const Want wants[] = {
      {"catalog_v1", "binary", binfmt::kVersion},
      {"catalog_v1_zero_sumsq", "binary", binfmt::kVersion},
      {"catalog_v2_version6", "binary-v2", binfmt::kVersionV2},
      {"text", "text", 0},
  };
  const fs::path golden = fs::path(PATHEST_SOURCE_DIR) / "tests" / "golden";
  for (const Want& want : wants) {
    if (std::string(want.format) == "text") continue;
    fs::copy_file(golden / (std::string(want.name) + ".stats"),
                  dir_ / (std::string(want.name) + ".stats"));
  }
  Save("text", CatalogFormat::kText);

  auto report = VerifyCatalogDir(dir_.string());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->fully_healthy())
      << report->failures[0].status.ToString();
  ASSERT_EQ(report->loaded.size(), std::size(wants));
  ASSERT_EQ(report->entries.size(), report->loaded.size());
  for (size_t i = 0; i < std::size(wants); ++i) {
    const CatalogEntryInfo& entry = report->entries[i];
    EXPECT_EQ(report->loaded[i], wants[i].name);
    EXPECT_EQ(entry.name, wants[i].name);
    EXPECT_EQ(entry.format, wants[i].format) << entry.name;
    EXPECT_EQ(entry.version, wants[i].version) << entry.name;
    EXPECT_EQ(entry.aligned, std::string(wants[i].format) == "binary-v2")
        << entry.name;
  }
}

TEST_F(CatalogTest, SnapshotLoaderMapsV2AndCopiesTextAndV1) {
  SaveEveryFormat();
  CatalogCache cache;
  auto loaded = serve::LoadCatalogSnapshots(dir_.string(), 7, cache);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->report.fully_healthy());
  ASSERT_EQ(loaded->snapshots.size(), 3u);
  EXPECT_FALSE(loaded->snapshots.at("t")->is_mapped());
  EXPECT_FALSE(loaded->snapshots.at("v1")->is_mapped());
  EXPECT_TRUE(loaded->snapshots.at("v2")->is_mapped());
  EXPECT_EQ(loaded->snapshots.at("v2")->version(), 7u);
  EXPECT_EQ(cache.Stats().misses, 1u);

  // Every storage form answers bit-identically to the built estimator.
  RankScratch scratch;
  PathSpace(graph_.num_labels(), 3).ForEach([&](const LabelPath& p) {
    const double expected = estimator_->Estimate(p);
    for (const auto& [name, snapshot] : loaded->snapshots) {
      EXPECT_EQ(snapshot->estimator().Estimate(p, scratch), expected)
          << name;
    }
  });

  // A second walk of the unchanged directory re-pins the v2 mapping.
  auto again = serve::LoadCatalogSnapshots(dir_.string(), 8, cache);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(cache.Stats().hits, 1u);
  EXPECT_EQ(cache.Stats().misses, 1u);
}

TEST_F(CatalogTest, OtherV2VersionsAreRefusedAtEveryEntryPoint) {
  // The version-6 golden relabelled as version 5 (an older layout) and 7
  // (a newer one), its header re-signed so only the version check sees it.
  std::ifstream in(fs::path(PATHEST_SOURCE_DIR) / "tests" / "golden" /
                       "catalog_v2_version6.stats",
                   std::ios::binary);
  const std::string golden{std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>()};
  for (const uint32_t version : {5u, 7u}) {
    std::string bytes = golden;
    std::memcpy(bytes.data() + binfmt::kMagicBytes, &version, 4);
    const uint32_t crc = Crc32c(bytes.data(), 24);
    std::memcpy(bytes.data() + 24, &crc, 4);
    const std::string path = (dir_ / "old.stats").string();
    { std::ofstream(path, std::ios::binary) << bytes; }
    const std::string error = "binary catalog: unsupported format version " +
                              std::to_string(version) + " (reader knows 6)";
    auto expect_refused = [&](const Status& status, const char* where) {
      EXPECT_EQ(status.code(), StatusCode::kIOError) << where;
      EXPECT_EQ(status.message(), error) << where;
    };

    expect_refused(DecodeCatalog(bytes).status(), "decode");
    for (CatalogVerify tier :
         {CatalogVerify::kTrusted, CatalogVerify::kChecksums}) {
      expect_refused(MappedCatalogEntry::Open(path, tier).status(),
                     CatalogVerifyName(tier));
    }
    auto report = VerifyCatalogDir(dir_.string());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->loaded.empty());
    ASSERT_EQ(report->failures.size(), 1u);
    expect_refused(report->failures[0].status, "verify");
    CatalogCache cache;
    auto snapshots = serve::LoadCatalogSnapshots(dir_.string(), 1, cache);
    ASSERT_TRUE(snapshots.ok()) << snapshots.status().ToString();
    EXPECT_TRUE(snapshots->snapshots.empty());
    ASSERT_EQ(snapshots->report.failures.size(), 1u);
    expect_refused(snapshots->report.failures[0].status, "snapshot");

    // What `catalog convert --format binary-v2` decides from: the sniffed
    // version is not the current one, so the entry is not skipped; the
    // reader refuses it, so it counts as failed and stays as it was.
    uint32_t sniffed = 0;
    auto format = SniffCatalogFile(path, &sniffed);
    ASSERT_TRUE(format.ok());
    EXPECT_EQ(*format, CatalogFormat::kBinaryV2);
    EXPECT_EQ(sniffed, version);
    expect_refused(LoadPathHistogram(path).status(), "convert");
    std::ifstream after(path, std::ios::binary);
    EXPECT_EQ(std::string(std::istreambuf_iterator<char>(after),
                          std::istreambuf_iterator<char>()),
              bytes);
  }
}

TEST_F(CatalogTest, FailureNamesTheImplicatedSection) {
  const CatalogLoadFailure localized = MakeCatalogLoadFailure(
      "x.stats", Status::IOError("section histogram: checksum mismatch"));
  EXPECT_EQ(localized.section, "histogram");
  EXPECT_EQ(localized.path, "x.stats");
  const CatalogLoadFailure plain =
      MakeCatalogLoadFailure("y.stats", Status::IOError("truncated"));
  EXPECT_EQ(plain.section, "");
  EXPECT_EQ(JsonEscape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
}

TEST_F(CatalogTest, MissingDirIsNotFoundForEveryLoader) {
  const std::string missing = (dir_ / "no_such_dir").string();
  EXPECT_EQ(ListCatalogEntryPaths(missing).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(VerifyCatalogDir(missing).status().code(), StatusCode::kNotFound);
  CatalogCache cache;
  EXPECT_EQ(serve::LoadCatalogSnapshots(missing, 1, cache).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace pathest
