// Tests for estimator persistence (core/serialize.h): format round-trips,
// estimate preservation, and corruption handling.

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <string_view>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/catalog.h"
#include "core/estimator.h"
#include "core/mapped_catalog.h"
#include "core/serialize.h"
#include "oracles/histogram_oracle.h"
#include "ordering/factory.h"
#include "path/selectivity.h"
#include "test_util.h"
#include "util/combinatorics.h"

namespace pathest {
namespace {

using testing_util::SmallGraph;

class SerializeTest : public ::testing::Test {
 protected:
  SerializeTest() : graph_(SmallGraph()) {
    auto map = ComputeSelectivities(graph_, 3);
    PATHEST_CHECK(map.ok(), "selectivities failed");
    map_ = std::make_unique<SelectivityMap>(std::move(*map));
  }

  PathHistogram BuildEstimator(const std::string& method, size_t beta) {
    auto ordering = MakeOrdering(method, graph_, 3);
    PATHEST_CHECK(ordering.ok(), "ordering failed");
    auto est = PathHistogram::Build(*map_, std::move(*ordering),
                                    HistogramType::kVOptimal, beta);
    PATHEST_CHECK(est.ok(), "estimator failed");
    return std::move(*est);
  }

  std::string Serialized(const PathHistogram& est) {
    std::vector<uint64_t> cards;
    for (LabelId l = 0; l < graph_.num_labels(); ++l) {
      cards.push_back(graph_.LabelCardinality(l));
    }
    std::string out;
    PATHEST_CHECK(EncodeCatalog(est, graph_.labels(), cards,
                                CatalogFormat::kText, &out)
                      .ok(),
                  "write failed");
    return out;
  }

  Graph graph_;
  std::unique_ptr<SelectivityMap> map_;
};

TEST_F(SerializeTest, SerializableOrderingPredicate) {
  for (const char* ok :
       {"num-alph", "num-card", "lex-alph", "lex-card", "sum-based",
        "gray-card"}) {
    EXPECT_TRUE(IsSerializableOrdering(ok)) << ok;
  }
  for (const char* bad : {"ideal", "random", "sum-L2", "bogus"}) {
    EXPECT_FALSE(IsSerializableOrdering(bad)) << bad;
  }
}

TEST_F(SerializeTest, RoundTripPreservesEveryEstimate) {
  for (const std::string& method : PaperOrderingNames()) {
    PathHistogram original = BuildEstimator(method, 8);
    auto loaded = DecodeCatalog(Serialized(original));
    ASSERT_TRUE(loaded.ok()) << method << ": "
                             << loaded.status().ToString();
    EXPECT_EQ(loaded->estimator.ordering().name(), method);
    EXPECT_EQ(loaded->estimator.histogram().num_buckets(), 8u);
    PathSpace space(graph_.num_labels(), 3);
    space.ForEach([&](const LabelPath& p) {
      // Re-parse the path against the loaded dictionary in case label ids
      // were re-assigned (they are written in id order, so they are not).
      EXPECT_DOUBLE_EQ(loaded->estimator.Estimate(p), original.Estimate(p))
          << method << " " << p.ToIdString();
    });
  }
}

TEST_F(SerializeTest, RoundTripPreservesBucketsExactly) {
  PathHistogram original = BuildEstimator("sum-based", 6);
  auto loaded = DecodeCatalog(Serialized(original));
  ASSERT_TRUE(loaded.ok());
  const std::vector<oracles::Bucket> a =
      oracles::BucketsOf(original.histogram());
  const std::vector<oracles::Bucket> b =
      oracles::BucketsOf(loaded->estimator.histogram());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].begin, b[i].begin);
    EXPECT_EQ(a[i].end, b[i].end);
    EXPECT_DOUBLE_EQ(a[i].sum, b[i].sum);      // hexfloat: bit-exact
    EXPECT_DOUBLE_EQ(a[i].sumsq, b[i].sumsq);
  }
  EXPECT_EQ(loaded->estimator.histogram_type(), HistogramType::kVOptimal);
}

TEST_F(SerializeTest, FileRoundTrip) {
  PathHistogram original = BuildEstimator("lex-card", 4);
  std::string path = (std::filesystem::temp_directory_path() /
                      "pathest_serialize_test.stats")
                         .string();
  ASSERT_TRUE(SavePathHistogram(original, graph_, path).ok());
  auto loaded = LoadPathHistogram(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->estimator.ordering().name(), "lex-card");
  std::filesystem::remove(path);
}

TEST_F(SerializeTest, RefusesMaterializedOrderings) {
  auto ideal = MakeOrderingWithSelectivities("ideal", graph_, 3, *map_);
  ASSERT_TRUE(ideal.ok());
  auto est = PathHistogram::Build(*map_, std::move(*ideal),
                                  HistogramType::kVOptimal, 4);
  ASSERT_TRUE(est.ok());
  std::vector<uint64_t> cards(graph_.num_labels(), 1);
  std::string out;
  Status st = EncodeCatalog(*est, graph_.labels(), cards, CatalogFormat::kText,
                            &out);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST_F(SerializeTest, RejectsBadMagic) {
  EXPECT_EQ(DecodeCatalog("not a histogram file\n").status().code(),
            StatusCode::kIOError);
}

TEST_F(SerializeTest, RejectsTruncatedFile) {
  std::string full = Serialized(BuildEstimator("num-card", 4));
  // Drop the last two lines.
  std::string truncated = full.substr(0, full.rfind('\n', full.size() - 2));
  truncated = truncated.substr(0, truncated.rfind('\n'));
  EXPECT_FALSE(DecodeCatalog(truncated).ok());
}

TEST_F(SerializeTest, RejectsCorruptedBuckets) {
  std::string full = Serialized(BuildEstimator("num-card", 4));
  // Corrupt a bucket boundary to break contiguity.
  size_t pos = full.find("buckets 4\n");
  ASSERT_NE(pos, std::string::npos);
  size_t line_start = pos + std::string("buckets 4\n").size();
  size_t line_end = full.find('\n', line_start);
  full.replace(line_start, line_end - line_start, "5 7 0x1p+3 0x1p+6");
  EXPECT_FALSE(DecodeCatalog(full).ok());
}

TEST_F(SerializeTest, LoadMissingFileFails) {
  EXPECT_EQ(LoadPathHistogram("/nonexistent/x.stats").status().code(),
            StatusCode::kIOError);
}

TEST_F(SerializeTest, ForgedHugeCountsInTextHeaderAreErrorsNotAllocations) {
  // Regression for the unbounded reserve: a forged count far beyond what
  // the remaining bytes could hold must fail up front, not allocate.
  const std::string full = Serialized(BuildEstimator("num-card", 4));
  for (const char* key : {"labels", "buckets"}) {
    const std::string needle = std::string(key) + " ";
    const size_t pos = full.find(needle);
    ASSERT_NE(pos, std::string::npos);
    const size_t num_start = pos + needle.size();
    const size_t num_end = full.find_first_of(" \n", num_start);
    std::string forged = full;
    forged.replace(num_start, num_end - num_start, "987654321098765");
    auto loaded = DecodeCatalog(forged);
    ASSERT_FALSE(loaded.ok()) << key;
    EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  }
  // An in-cap-range but still impossible count reaches the plausibility
  // gate itself (bucket counts have no fixed cap, only the gate).
  {
    const size_t pos = full.find("buckets ");
    ASSERT_NE(pos, std::string::npos);
    const size_t num_start = pos + 8;
    const size_t num_end = full.find_first_of(" \n", num_start);
    std::string forged = full;
    forged.replace(num_start, num_end - num_start, "123456789");
    auto loaded = DecodeCatalog(forged);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("implausible"),
              std::string::npos)
        << loaded.status().ToString();
  }
}

// EncodeCatalog then DecodeCatalog, in every format: the loaded estimator
// answers every domain index and every path bit for bit as the original,
// keeps its labels and cardinalities, and re-encodes to the same bytes.
TEST_F(SerializeTest, EncodeDecodeRoundTripsEveryFormatBitIdentical) {
  std::vector<uint64_t> cards;
  for (LabelId l = 0; l < graph_.num_labels(); ++l) {
    cards.push_back(graph_.LabelCardinality(l));
  }
  for (const char* method : {"sum-based", "num-card"}) {
    const PathHistogram original = BuildEstimator(method, 6);
    for (CatalogFormat format : {CatalogFormat::kText, CatalogFormat::kBinary,
                                 CatalogFormat::kBinaryV2}) {
      const std::string what =
          std::string(method) + " " + CatalogFormatName(format);
      std::string bytes;
      ASSERT_TRUE(
          EncodeCatalog(original, graph_.labels(), cards, format, &bytes).ok())
          << what;
      auto loaded = DecodeCatalog(bytes);
      ASSERT_TRUE(loaded.ok()) << what << ": " << loaded.status().ToString();
      EXPECT_EQ(loaded->labels.names(), graph_.labels().names()) << what;
      EXPECT_EQ(loaded->label_cardinalities, cards) << what;
      const Histogram& want = original.histogram();
      const Histogram& got = loaded->estimator.histogram();
      ASSERT_EQ(got.domain_size(), want.domain_size()) << what;
      for (uint64_t i = 0; i < want.domain_size(); ++i) {
        ASSERT_EQ(got.EstimatePoint(i), want.EstimatePoint(i))
            << what << " index " << i;
      }
      original.ordering().space().ForEach([&](const LabelPath& p) {
        EXPECT_EQ(loaded->estimator.Estimate(p), original.Estimate(p))
            << what << " " << p.ToIdString();
      });
      std::string again;
      ASSERT_TRUE(EncodeCatalog(loaded->estimator, loaded->labels,
                                loaded->label_cardinalities, format, &again)
                      .ok());
      EXPECT_EQ(again, bytes) << what;
    }
  }
}

// Binary round-trips across the full serializable surface: every factory
// ordering, every analyzed path length. The chain is the interchange
// story end to end — build, save TEXT, load, save BINARY, load — and the
// final estimator must be bit-identical to the original over the whole
// domain.
class BinaryRoundTripTest
    : public ::testing::TestWithParam<std::tuple<std::string, size_t>> {};

TEST_P(BinaryRoundTripTest, TextThenBinaryPreservesEveryEstimateBitExact) {
  const auto& [method, k] = GetParam();
  Graph graph = SmallGraph();
  auto map = ComputeSelectivities(graph, k);
  ASSERT_TRUE(map.ok());
  auto ordering = MakeOrdering(method, graph, k);
  ASSERT_TRUE(ordering.ok());
  auto original = PathHistogram::Build(*map, std::move(*ordering),
                                       HistogramType::kVOptimal, 5);
  ASSERT_TRUE(original.ok());

  std::vector<uint64_t> cards;
  for (LabelId l = 0; l < graph.num_labels(); ++l) {
    cards.push_back(graph.LabelCardinality(l));
  }
  // text → load
  std::string text;
  ASSERT_TRUE(EncodeCatalog(*original, graph.labels(), cards,
                            CatalogFormat::kText, &text)
                  .ok());
  auto from_text = DecodeCatalog(text);
  ASSERT_TRUE(from_text.ok()) << from_text.status().ToString();
  // → binary → load
  std::string binary;
  ASSERT_TRUE(EncodeCatalog(from_text->estimator, from_text->labels,
                            from_text->label_cardinalities,
                            CatalogFormat::kBinary, &binary)
                  .ok());
  ASSERT_EQ(SniffCatalogFormat(std::string_view(binary)),
            CatalogFormat::kBinary);
  auto from_binary = DecodeCatalog(binary);
  ASSERT_TRUE(from_binary.ok()) << method << " k=" << k << ": "
                                << from_binary.status().ToString();

  // "sum-card" is an alias: SumBasedOrdering canonicalizes the paper's
  // sum+cardinality combination to "sum-based" at construction, so that
  // is the name that persists.
  const std::string canonical = method == "sum-card" ? "sum-based" : method;
  EXPECT_EQ(from_binary->estimator.ordering().name(), canonical);
  EXPECT_EQ(from_binary->labels.names(), graph.labels().names());
  EXPECT_EQ(from_binary->label_cardinalities, cards);
  PathSpace space(graph.num_labels(), k);
  space.ForEach([&](const LabelPath& p) {
    // Bit-identical, not approximately equal: the binary format stores
    // doubles as IEEE-754 bit patterns.
    EXPECT_EQ(from_binary->estimator.Estimate(p), original->Estimate(p))
        << method << " k=" << k << " " << p.ToIdString();
  });
}

TEST_P(BinaryRoundTripTest, V2RoundTripPreservesEveryEstimateBitExact) {
  const auto& [method, k] = GetParam();
  Graph graph = SmallGraph();
  auto map = ComputeSelectivities(graph, k);
  ASSERT_TRUE(map.ok());
  auto ordering = MakeOrdering(method, graph, k);
  ASSERT_TRUE(ordering.ok());
  auto original = PathHistogram::Build(*map, std::move(*ordering),
                                       HistogramType::kVOptimal, 5);
  ASSERT_TRUE(original.ok());
  std::vector<uint64_t> cards;
  for (LabelId l = 0; l < graph.num_labels(); ++l) {
    cards.push_back(graph.LabelCardinality(l));
  }

  std::string v2;
  ASSERT_TRUE(EncodeCatalog(*original, graph.labels(), cards,
                            CatalogFormat::kBinaryV2, &v2)
                  .ok());
  ASSERT_EQ(SniffCatalogFormat(std::string_view(v2)),
            CatalogFormat::kBinaryV2);
  // The copying reader.
  auto loaded = DecodeCatalog(v2);
  ASSERT_TRUE(loaded.ok()) << method << " k=" << k << ": "
                           << loaded.status().ToString();
  const std::string canonical = method == "sum-card" ? "sum-based" : method;
  EXPECT_EQ(loaded->estimator.ordering().name(), canonical);
  EXPECT_EQ(loaded->labels.names(), graph.labels().names());
  EXPECT_EQ(loaded->label_cardinalities, cards);
  PathSpace space(graph.num_labels(), k);
  space.ForEach([&](const LabelPath& p) {
    EXPECT_EQ(loaded->estimator.Estimate(p), original->Estimate(p))
        << method << " k=" << k << " " << p.ToIdString();
  });

  // Writing the same estimator twice must produce identical bytes — the
  // golden test, the fault suite, and convert idempotence all rest on
  // deterministic serialization.
  std::string again;
  ASSERT_TRUE(EncodeCatalog(*original, graph.labels(), cards,
                            CatalogFormat::kBinaryV2, &again)
                  .ok());
  EXPECT_EQ(v2, again);
}

TEST_P(BinaryRoundTripTest, V2SectionsArePackedWithExactLayouts) {
  const auto& [method, k] = GetParam();
  Graph graph = SmallGraph();
  auto map = ComputeSelectivities(graph, k);
  ASSERT_TRUE(map.ok());
  auto ordering = MakeOrdering(method, graph, k);
  ASSERT_TRUE(ordering.ok());
  auto est = PathHistogram::Build(*map, std::move(*ordering),
                                  HistogramType::kVOptimal, 5);
  ASSERT_TRUE(est.ok());
  std::vector<uint64_t> cards;
  for (LabelId l = 0; l < graph.num_labels(); ++l) {
    cards.push_back(graph.LabelCardinality(l));
  }
  std::string v2;
  ASSERT_TRUE(EncodeCatalog(*est, graph.labels(), cards,
                            CatalogFormat::kBinaryV2, &v2)
                  .ok());

  // Walk the section table by hand against the layout helpers — the same
  // helpers the readers use, so this pins writer/reader agreement AND the
  // placement contract `catalog verify` reports as aligned=yes: each
  // section starts at the first 64-byte boundary after the previous end.
  const auto* bytes = reinterpret_cast<const unsigned char*>(v2.data());
  uint32_t section_count;
  std::memcpy(&section_count, bytes + 12, 4);
  // Version 5: the four sections for every ordering (the sum family's
  // stage-2/3 tables are derived, not stored).
  ASSERT_EQ(section_count, 4u);
  uint64_t file_size;
  std::memcpy(&file_size, bytes + 16, 8);
  EXPECT_EQ(file_size, v2.size());

  const uint64_t beta = est->histogram().num_buckets();
  uint64_t prev_end =
      binfmt::kHeaderBytes + section_count * binfmt::kSectionEntryBytes;
  for (uint32_t i = 0; i < section_count; ++i) {
    const size_t at = binfmt::kHeaderBytes + i * binfmt::kSectionEntryBytes;
    uint32_t id;
    uint64_t offset, length;
    std::memcpy(&id, bytes + at, 4);
    std::memcpy(&offset, bytes + at + 8, 8);
    std::memcpy(&length, bytes + at + 16, 8);
    EXPECT_EQ(offset, binfmt::AlignUp(prev_end, binfmt::kArrayAlignBytes))
        << "section " << id;
    prev_end = offset + length;
    EXPECT_EQ(id, i + 1);
    if (id == binfmt::kSectionHistogram) {
      EXPECT_EQ(length, binfmt::HistogramLayout(beta).payload_bytes);
    }
  }
  // No trailing padding: the writer pads each section start, not the file
  // end, so the last section ends the file exactly.
  EXPECT_EQ(prev_end, v2.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllOrderingsAllK, BinaryRoundTripTest,
    ::testing::Combine(
        ::testing::Values("num-alph", "num-card", "lex-alph", "lex-card",
                          "sum-based", "sum-card", "sum-alph", "gray-alph",
                          "gray-card"),
        ::testing::Values(size_t{2}, size_t{3}, size_t{4})),
    [](const ::testing::TestParamInfo<std::tuple<std::string, size_t>>&
           info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_k" + std::to_string(std::get<1>(info.param));
    });

// The committed golden file pins binary catalog v1: if an edit to the
// writer changes a single byte of the layout, this test fails — version
// bumps must be deliberate (new kVersion), never accidental drift.
//
// Regenerate deliberately with: PATHEST_REGEN_GOLDEN=1 ./serialize_test
TEST(GoldenBinaryCatalog, V1LayoutIsPinned) {
  const std::string path =
      std::string(PATHEST_SOURCE_DIR) + "/tests/golden/catalog_v1.stats";
  // The golden is deterministic: SmallGraph, sum-based, k=3, beta=6 (the
  // build and both serializers are bit-reproducible).
  Graph graph = SmallGraph();
  auto map = ComputeSelectivities(graph, 3);
  ASSERT_TRUE(map.ok());
  auto ordering = MakeOrdering("sum-based", graph, 3);
  ASSERT_TRUE(ordering.ok());
  auto est = PathHistogram::Build(*map, std::move(*ordering),
                                  HistogramType::kVOptimal, 6);
  ASSERT_TRUE(est.ok());
  std::vector<uint64_t> cards;
  for (LabelId l = 0; l < graph.num_labels(); ++l) {
    cards.push_back(graph.LabelCardinality(l));
  }
  std::string current;
  ASSERT_TRUE(EncodeCatalog(*est, graph.labels(), cards,
                            CatalogFormat::kBinary, &current)
                  .ok());

  if (std::getenv("PATHEST_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.is_open()) << path;
    out.write(current.data(), static_cast<std::streamsize>(current.size()));
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open())
      << path << " missing — run with PATHEST_REGEN_GOLDEN=1 to create";
  std::string golden((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
  // Byte-identical both ways: today's writer reproduces the golden, and
  // the golden still loads to a working estimator.
  EXPECT_EQ(current, golden) << "binary catalog layout drifted from v1 — "
                                "if intentional, bump binfmt::kVersion";
  auto loaded = DecodeCatalog(golden);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  PathSpace space(graph.num_labels(), 3);
  space.ForEach([&](const LabelPath& p) {
    EXPECT_EQ(loaded->estimator.Estimate(p), est->Estimate(p));
  });
}

// The estimator every binary v2 golden holds: SmallGraph, sum-based, k=3,
// beta=6 (the build and the serializers are bit-reproducible).
PathHistogram GoldenEstimator(const Graph& graph) {
  auto map = ComputeSelectivities(graph, 3);
  PATHEST_CHECK(map.ok(), "selectivities failed");
  auto ordering = MakeOrdering("sum-based", graph, 3);
  PATHEST_CHECK(ordering.ok(), "ordering failed");
  auto est = PathHistogram::Build(*map, std::move(*ordering),
                                  HistogramType::kVOptimal, 6);
  PATHEST_CHECK(est.ok(), "build failed");
  return std::move(*est);
}

std::string GoldenPath(const std::string& name) {
  return std::string(PATHEST_SOURCE_DIR) + "/tests/golden/" + name;
}

std::string ReadGolden(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  PATHEST_CHECK(in.is_open(), "golden fixture missing");
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

uint32_t HeaderVersion(const std::string& bytes) {
  uint32_t version;
  std::memcpy(&version, bytes.data() + binfmt::kMagicBytes, 4);
  return version;
}

// The v2 file at `path` must answer every domain index, and every path,
// bit for bit as `est` does (every index as the oracle over its rows):
// copied, and mapped at every tier. A
// legacy file also passes the mean row it stores, which readers served
// before the mean was divided at lookup: every index must still get
// exactly that value.
void ExpectServesLikeHistogram(const std::string& path,
                               const PathHistogram& est,
                               std::span<const double> stored_means = {}) {
  const Histogram& histogram = est.histogram();
  const oracles::HistogramOracle oracle(histogram);
  const PathSpace& space = est.ordering().space();
  auto check_flat = [&](const Histogram& flat, const char* what) {
    ASSERT_EQ(flat.num_buckets(), histogram.num_buckets()) << what;
    ASSERT_EQ(flat.domain_size(), histogram.domain_size()) << what;
    for (uint64_t i = 0; i < histogram.domain_size(); ++i) {
      ASSERT_EQ(flat.EstimatePoint(i), oracle.Estimate(i))
          << what << " index " << i;
      if (!stored_means.empty()) {
        ASSERT_EQ(flat.EstimatePoint(i), stored_means[flat.FindBucket(i)])
            << what << " index " << i;
      }
      ASSERT_EQ(&oracle.buckets()[flat.FindBucket(i)], &oracle.BucketFor(i))
          << what << " index " << i;
    }
  };

  auto copied = DecodeCatalog(ReadGolden(path));
  ASSERT_TRUE(copied.ok()) << copied.status().ToString();
  EXPECT_EQ(copied->estimator.histogram().num_buckets(),
            histogram.num_buckets());
  const Estimator serving(copied->estimator);
  check_flat(serving.flat(), "copied");
  space.ForEach([&](const LabelPath& p) {
    EXPECT_EQ(copied->estimator.Estimate(p), est.Estimate(p));
  });
  for (CatalogVerify tier :
       {CatalogVerify::kTrusted, CatalogVerify::kChecksums}) {
    auto mapped = MappedCatalogEntry::Open(path, tier);
    ASSERT_TRUE(mapped.ok())
        << CatalogVerifyName(tier) << ": " << mapped.status().ToString();
    EXPECT_EQ((*mapped)->mapped_bytes(), std::filesystem::file_size(path));
    check_flat((*mapped)->estimator().flat(), CatalogVerifyName(tier));
    RankScratch scratch;
    space.ForEach([&](const LabelPath& p) {
      EXPECT_EQ((*mapped)->estimator().Estimate(p, scratch), est.Estimate(p));
    });
  }
}

// `catalog verify` on a directory holding only `path` reports one healthy
// binary-v2 entry, aligned, at header version `version`.
void ExpectVerifiedAs(const std::string& path, uint32_t version) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "pathest_golden_verify";
  fs::remove_all(dir);
  fs::create_directories(dir);
  fs::copy_file(path, dir / "entry.stats");
  auto report = VerifyCatalogDir(dir.string());
  fs::remove_all(dir);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->fully_healthy())
      << report->failures[0].status.ToString();
  ASSERT_EQ(report->entries.size(), 1u);
  EXPECT_EQ(report->entries[0].format, "binary-v2");
  EXPECT_TRUE(report->entries[0].aligned);
  EXPECT_EQ(report->entries[0].version, version);
}

// Same pin for v2 — its layout additionally carries the serving rows, so
// drift here silently breaks mapped catalogs.
//
// Regenerate deliberately with: PATHEST_REGEN_GOLDEN=1 ./serialize_test
TEST(GoldenBinaryCatalog, V2LayoutIsPinned) {
  const std::string path = GoldenPath("catalog_v2_version5.stats");
  Graph graph = SmallGraph();
  const PathHistogram est = GoldenEstimator(graph);
  std::vector<uint64_t> cards;
  for (LabelId l = 0; l < graph.num_labels(); ++l) {
    cards.push_back(graph.LabelCardinality(l));
  }
  std::string current;
  ASSERT_TRUE(EncodeCatalog(est, graph.labels(), cards,
                            CatalogFormat::kBinaryV2, &current)
                  .ok());

  if (std::getenv("PATHEST_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.is_open()) << path;
    out.write(current.data(), static_cast<std::streamsize>(current.size()));
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "regenerated " << path;
  }

  ASSERT_TRUE(std::filesystem::exists(path))
      << path << " missing — run with PATHEST_REGEN_GOLDEN=1 to create";
  const std::string golden = ReadGolden(path);
  EXPECT_EQ(current, golden) << "binary catalog layout drifted from v2 — "
                                "if intentional, bump binfmt::kVersionV2";
  EXPECT_EQ(HeaderVersion(golden), binfmt::kVersionV2);
  ExpectServesLikeHistogram(path, est);
  ExpectVerifiedAs(path, binfmt::kVersionV2);
}

// Read compatibility: the committed legacy fixtures hold the golden
// estimator in older v2 versions — catalog_v2_version4.stats as version 4
// (the mean and prefix rows stored after sumsq),
// catalog_v2_version3.stats as version 3 (also the stage-2/3 tables as
// sections 5 and 6), catalog_v2.stats (packed) and catalog_v2_paged.stats
// (every section on a 4096-byte page, as written before sections were
// packed) as version 2, which also carries the end row and the Eytzinger
// rows. Each must keep loading at the strictest tier, mapping at every
// tier, passing `catalog verify`, and serving bit-identical estimates —
// the very values of its stored mean row; and rewriting any of them as v2
// must give the version-5 golden's exact bytes.
struct LegacyFixture {
  const char* name;
  uint32_t version;
  uint32_t sections;
  bool paged;
};

class LegacyFixtureTest : public ::testing::TestWithParam<LegacyFixture> {};

TEST_P(LegacyFixtureTest, LoadsVerifiesServesMappedAndConvertsToVersion5) {
  const LegacyFixture& fx = GetParam();
  const std::string path = GoldenPath(fx.name);
  Graph graph = SmallGraph();
  const PathHistogram est = GoldenEstimator(graph);
  const std::string fixture = ReadGolden(path);
  ASSERT_EQ(HeaderVersion(fixture), fx.version);

  uint32_t section_count;
  std::memcpy(&section_count, fixture.data() + 12, 4);
  ASSERT_EQ(section_count, fx.sections);
  std::vector<double> stored_means;
  uint64_t prev_end =
      binfmt::kHeaderBytes + section_count * binfmt::kSectionEntryBytes;
  for (uint32_t i = 0; i < section_count; ++i) {
    const size_t at = binfmt::kHeaderBytes + i * binfmt::kSectionEntryBytes;
    uint32_t id;
    uint64_t offset, length;
    std::memcpy(&id, fixture.data() + at, 4);
    std::memcpy(&offset, fixture.data() + at + 8, 8);
    std::memcpy(&length, fixture.data() + at + 16, 8);
    EXPECT_EQ(id, i + 1);
    // Still the placement it stands for: pages, or packed.
    EXPECT_EQ(offset, fx.paged
                          ? uint64_t{4096} * (i + 1)
                          : binfmt::AlignUp(prev_end, binfmt::kArrayAlignBytes))
        << "section " << id;
    if (id == binfmt::kSectionHistogram) {
      const binfmt::HistogramLayoutV2 hl =
          binfmt::HistogramLayout(6, fx.version);
      EXPECT_EQ(length, hl.payload_bytes);
      // Every legacy version stores its mean row right after sumsq.
      const uint64_t mean_off =
          binfmt::AlignUp(hl.sumsq_off + 8 * 6, binfmt::kArrayAlignBytes);
      stored_means.resize(6);
      std::memcpy(stored_means.data(), fixture.data() + offset + mean_off,
                  6 * sizeof(double));
    }
    prev_end = offset + length;
  }
  ASSERT_EQ(stored_means.size(), 6u);

  ExpectServesLikeHistogram(path, est, stored_means);
  ExpectVerifiedAs(path, fx.version);

  // The engine of `catalog convert --format binary-v2`.
  auto loaded = DecodeCatalog(fixture);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::string converted =
      (std::filesystem::temp_directory_path() /
       ("converted_" + std::string(fx.name)))
          .string();
  ASSERT_TRUE(
      SaveLoadedPathHistogram(*loaded, converted, CatalogFormat::kBinaryV2)
          .ok());
  EXPECT_EQ(ReadGolden(converted),
            ReadGolden(GoldenPath("catalog_v2_version5.stats")));
  std::filesystem::remove(converted);
}

INSTANTIATE_TEST_SUITE_P(
    Goldens, LegacyFixtureTest,
    ::testing::Values(
        LegacyFixture{"catalog_v2_version4.stats", binfmt::kVersionV2MeanRows,
                      4, false},
        LegacyFixture{"catalog_v2_version3.stats",
                      binfmt::kVersionV2SumSections, 6, false},
        LegacyFixture{"catalog_v2.stats", binfmt::kVersionV2Eytzinger, 6,
                      false},
        LegacyFixture{"catalog_v2_paged.stats", binfmt::kVersionV2Eytzinger,
                      6, true}),
    [](const ::testing::TestParamInfo<LegacyFixture>& info) {
      if (info.param.version != binfmt::kVersionV2Eytzinger) {
        return "version" + std::to_string(info.param.version);
      }
      return std::string(info.param.paged ? "paged" : "packed");
    });

// Every committed golden loads and re-encodes byte for byte in its own
// format: v1 and the current v2 version to themselves, the legacy v2
// versions to the version-5 golden.
TEST(GoldenBinaryCatalog, EveryGoldenReencodesByteForByte) {
  const std::string version5 =
      ReadGolden(GoldenPath("catalog_v2_version5.stats"));
  size_t goldens = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(PATHEST_SOURCE_DIR) + "/tests/golden")) {
    if (entry.path().extension() != ".stats") continue;
    const std::string golden = ReadGolden(entry.path().string());
    const CatalogFormat format = SniffCatalogFormat(std::string_view(golden));
    ASSERT_NE(format, CatalogFormat::kText) << entry.path();
    auto loaded = DecodeCatalog(golden);
    ASSERT_TRUE(loaded.ok()) << entry.path() << ": "
                             << loaded.status().ToString();
    std::string again;
    ASSERT_TRUE(EncodeCatalog(loaded->estimator, loaded->labels,
                              loaded->label_cardinalities, format, &again)
                    .ok());
    EXPECT_EQ(again, format == CatalogFormat::kBinary ? golden : version5)
        << entry.path();
    ++goldens;
  }
  EXPECT_EQ(goldens, 6u);
}

TEST(SniffBinaryV2, DistinguishesFormatsWithoutSlurping) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "pathest_sniff_test";
  fs::create_directories(dir);
  Graph graph = SmallGraph();
  auto map = ComputeSelectivities(graph, 2);
  ASSERT_TRUE(map.ok());
  auto ordering = MakeOrdering("sum-based", graph, 2);
  ASSERT_TRUE(ordering.ok());
  auto est = PathHistogram::Build(*map, std::move(*ordering),
                                  HistogramType::kVOptimal, 4);
  ASSERT_TRUE(est.ok());

  const std::string text = (dir / "a.stats").string();
  const std::string v1 = (dir / "b.stats").string();
  const std::string v2 = (dir / "c.stats").string();
  ASSERT_TRUE(
      SavePathHistogram(*est, graph, text, CatalogFormat::kText).ok());
  ASSERT_TRUE(
      SavePathHistogram(*est, graph, v1, CatalogFormat::kBinary).ok());
  ASSERT_TRUE(
      SavePathHistogram(*est, graph, v2, CatalogFormat::kBinaryV2).ok());
  auto sniff = [](const std::string& p) {
    auto r = SniffFileIsBinaryV2(p);
    PATHEST_CHECK(r.ok(), "sniff failed");
    return *r;
  };
  EXPECT_FALSE(sniff(text));
  EXPECT_FALSE(sniff(v1));
  EXPECT_TRUE(sniff(v2));
  // Short file: not an error, just not v2.
  const std::string stub = (dir / "short").string();
  { std::ofstream(stub) << "ab"; }
  EXPECT_FALSE(sniff(stub));
  EXPECT_EQ(SniffFileIsBinaryV2((dir / "missing").string()).status().code(),
            StatusCode::kNotFound);
  // Every format loads through the sniffing dispatcher.
  for (const std::string& p : {text, v1, v2}) {
    auto loaded = LoadPathHistogram(p);
    ASSERT_TRUE(loaded.ok()) << p << ": " << loaded.status().ToString();
    EXPECT_EQ(loaded->estimator.ordering().name(), "sum-based");
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace pathest
