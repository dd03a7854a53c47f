// The robustness proof of the binary catalog (core/serialize.h): take one
// VALID catalog image and replay every corruption class against the loader
// — truncation at every interesting byte, single-bit flips in every
// region, forged count/length fields that survive the checksum walk, and
// crashes at every stage of an atomic save. EVERY injected fault must
// yield a typed Status (no crash, hang, OOM, or silently wrong estimator),
// and a crashed save must leave the previous catalog byte-identical.

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <limits>
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
#include "util/fault_injection.h"
#include "util/safe_io.h"

namespace pathest {
namespace {

using testing_util::SmallGraph;

class FaultInjectionTest : public ::testing::Test {
 protected:
  FaultInjectionTest() : graph_(SmallGraph()) {
    auto map = ComputeSelectivities(graph_, 3);
    PATHEST_CHECK(map.ok(), "selectivities failed");
    map_ = std::make_unique<SelectivityMap>(std::move(*map));
    dir_ = std::filesystem::temp_directory_path() /
           ("pathest_fault_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }

  ~FaultInjectionTest() override { std::filesystem::remove_all(dir_); }

  PathHistogram BuildEstimator(const std::string& method, size_t beta) {
    auto ordering = MakeOrdering(method, graph_, 3);
    PATHEST_CHECK(ordering.ok(), "ordering failed");
    auto est = PathHistogram::Build(*map_, std::move(*ordering),
                                    HistogramType::kVOptimal, beta);
    PATHEST_CHECK(est.ok(), "estimator failed");
    return std::move(*est);
  }

  // A valid binary image of a sum-based estimator (carries all 5 sections).
  std::string ValidImage(const std::string& method = "sum-based") {
    PathHistogram est = BuildEstimator(method, 6);
    std::vector<uint64_t> cards;
    for (LabelId l = 0; l < graph_.num_labels(); ++l) {
      cards.push_back(graph_.LabelCardinality(l));
    }
    std::string bytes;
    PATHEST_CHECK(EncodeCatalog(est, graph_.labels(), cards,
                                CatalogFormat::kBinary, &bytes)
                      .ok(),
                  "binary write failed");
    return bytes;
  }

  // The fault contract: the loader must return a typed error — and, being
  // in-memory parsing of a byte image, returning AT ALL rules out the
  // crash/hang failure mode for that input.
  void ExpectTypedFailure(const std::string& image, const std::string& what) {
    auto loaded = DecodeCatalog(image);
    ASSERT_FALSE(loaded.ok()) << what << ": corrupt image loaded cleanly";
    EXPECT_EQ(loaded.status().code(), StatusCode::kIOError)
        << what << ": " << loaded.status().ToString();
    EXPECT_FALSE(loaded.status().message().empty()) << what;
  }

  Graph graph_;
  std::unique_ptr<SelectivityMap> map_;
  std::filesystem::path dir_;
};

TEST_F(FaultInjectionTest, ValidImageLoadsAndMatchesOriginal) {
  // Sanity anchor for everything below: the uncorrupted image round-trips.
  PathHistogram original = BuildEstimator("sum-based", 6);
  const std::string image = ValidImage();
  auto loaded = DecodeCatalog(image);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  PathSpace space(graph_.num_labels(), 3);
  space.ForEach([&](const LabelPath& p) {
    EXPECT_DOUBLE_EQ(loaded->estimator.Estimate(p), original.Estimate(p));
  });
}

TEST_F(FaultInjectionTest, EveryTruncationPointFailsTyped) {
  const std::string image = ValidImage();
  const std::vector<size_t> points = TruncationPoints(image);
  // The sweep must actually cover the header byte-by-byte and every
  // section boundary: 33 header points + 5 sections.
  ASSERT_GT(points.size(), 40u);
  for (size_t cut : points) {
    ExpectTypedFailure(image.substr(0, cut),
                       "truncate to " + std::to_string(cut));
  }
  // And a coarse whole-file sweep (every 7th byte) for points the
  // boundary enumeration might miss.
  for (size_t cut = 0; cut < image.size(); cut += 7) {
    ExpectTypedFailure(image.substr(0, cut),
                       "truncate to " + std::to_string(cut));
  }
}

TEST_F(FaultInjectionTest, SingleBitFlipInEverySectionFailsTyped) {
  const std::string image = ValidImage();
  auto sections = ParseBinarySectionTable(image);
  ASSERT_TRUE(sections.ok());
  ASSERT_EQ(sections->size(), 5u);  // sum-based carries all five
  for (const BinarySectionInfo& s : *sections) {
    // First, middle, and last byte of every payload, a couple of bits each.
    for (size_t at : {s.offset, s.offset + s.length / 2,
                      s.offset + s.length - 1}) {
      for (int bit : {0, 7}) {
        std::string corrupt = image;
        ASSERT_TRUE(FlipBit(&corrupt, at, bit).ok());
        ExpectTypedFailure(corrupt, std::string("flip in section ") +
                                        binfmt::SectionName(s.id));
      }
    }
  }
}

TEST_F(FaultInjectionTest, BitFlipsInHeaderAndTableFailTyped) {
  const std::string image = ValidImage();
  const size_t guarded =
      binfmt::kHeaderBytes + 5 * binfmt::kSectionEntryBytes;
  for (size_t at = 0; at < guarded; ++at) {
    std::string corrupt = image;
    ASSERT_TRUE(FlipBit(&corrupt, at, at % 8).ok());
    ExpectTypedFailure(corrupt, "flip at header/table byte " +
                                    std::to_string(at));
  }
}

TEST_F(FaultInjectionTest, ForgedHugeBucketCountIsErrorNotOom) {
  // The forged count is written THROUGH PatchSectionPayload, which
  // refreshes the CRC — so the checksum walk passes and the count reaches
  // the allocation-guarding validation (the exact path a flipped count
  // plus a colliding CRC would take).
  const std::string image = ValidImage();
  for (uint64_t forged :
       {uint64_t{1} << 60, uint64_t{0xFFFFFFFFFFFFFFFF},
        uint64_t{1} << 32}) {
    std::string corrupt = image;
    std::string le;
    AppendU64(&le, forged);
    ASSERT_TRUE(PatchSectionPayload(&corrupt, binfmt::kSectionHistogram,
                                    /*offset_in_payload=*/0, le)
                    .ok());
    auto loaded = DecodeCatalog(corrupt);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
    EXPECT_NE(loaded.status().message().find("implausible count"),
              std::string::npos)
        << loaded.status().ToString();
  }
}

TEST_F(FaultInjectionTest, ForgedLabelCountAndLengthFailTyped) {
  const std::string image = ValidImage();
  {
    // Label count forged huge (CRC refreshed).
    std::string corrupt = image;
    std::string le;
    AppendU32(&le, 0xFFFFFFFFu);
    ASSERT_TRUE(PatchSectionPayload(&corrupt, binfmt::kSectionLabels, 0, le)
                    .ok());
    ExpectTypedFailure(corrupt, "forged label count");
  }
  {
    // First label's length prefix forged past the payload.
    std::string corrupt = image;
    std::string le;
    AppendU32(&le, 0x7FFFFFFFu);
    ASSERT_TRUE(PatchSectionPayload(&corrupt, binfmt::kSectionLabels, 4, le)
                    .ok());
    ExpectTypedFailure(corrupt, "forged label length");
  }
  {
    // Cardinality count that disagrees with the label count.
    std::string corrupt = image;
    std::string le;
    AppendU32(&le, 7);
    ASSERT_TRUE(PatchSectionPayload(&corrupt, binfmt::kSectionCardinalities,
                                    0, le)
                    .ok());
    ExpectTypedFailure(corrupt, "mismatched cardinality count");
  }
  {
    // k forged to 0 and past kMaxPathLength in the ordering section; the
    // field sits after the two length-prefixed strings.
    auto find_k_offset = [&]() -> size_t {
      BoundedReader r(image.data() + binfmt::kHeaderBytes +
                          5 * binfmt::kSectionEntryBytes,
                      image.size());
      std::string skip;
      size_t before = r.remaining();
      PATHEST_CHECK(r.ReadLengthPrefixedString(&skip, 64, "t").ok(), "t");
      PATHEST_CHECK(r.ReadLengthPrefixedString(&skip, 64, "t").ok(), "t");
      return before - r.remaining();
    };
    for (uint32_t forged_k : {0u, 250u}) {
      std::string corrupt = image;
      std::string le;
      AppendU32(&le, forged_k);
      ASSERT_TRUE(PatchSectionPayload(&corrupt, binfmt::kSectionOrdering,
                                      find_k_offset(), le)
                      .ok());
      ExpectTypedFailure(corrupt, "forged k=" + std::to_string(forged_k));
    }
  }
}

TEST_F(FaultInjectionTest, ForgedSectionExtentsFailTyped) {
  const std::string image = ValidImage();
  // Section count forged huge (header CRC will catch it) and, separately,
  // a table entry pointing outside the file (table CRC intact via patch of
  // the raw entry + recomputed CRCs is deliberately NOT done here — the
  // crc-mismatch path is itself the assertion).
  {
    std::string corrupt = image;
    corrupt[12] = '\x40';  // section count low byte -> 64+
    ExpectTypedFailure(corrupt, "forged section count");
  }
  {
    std::string corrupt = image;
    // Offset field of the first table entry (header + 8) -> huge.
    std::memset(corrupt.data() + binfmt::kHeaderBytes + 8, 0x7F, 8);
    ExpectTypedFailure(corrupt, "forged section offset");
  }
}

TEST_F(FaultInjectionTest, CompositionMismatchIsCaughtSemantically) {
  // A wrong-but-well-formed composition value with a VALID CRC: only the
  // semantic cross-check against the rebuilt table can see it.
  const std::string image = ValidImage("sum-based");
  std::string corrupt = image;
  std::string le;
  AppendU64(&le, 424242);
  // Payload: u32 |L|, u32 k, u64 count, then values — patch value 0.
  ASSERT_TRUE(PatchSectionPayload(&corrupt, binfmt::kSectionComposition, 16,
                                  le)
                  .ok());
  auto loaded = DecodeCatalog(corrupt);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("mismatch"), std::string::npos)
      << loaded.status().ToString();
}

TEST_F(FaultInjectionTest, TextForgedCountsFailTyped) {
  // The text reader's forged-count regression (the unbounded-reserve bug):
  // a huge claimed count must be an IOError before any allocation.
  PathHistogram est = BuildEstimator("num-card", 4);
  std::vector<uint64_t> cards;
  for (LabelId l = 0; l < graph_.num_labels(); ++l) {
    cards.push_back(graph_.LabelCardinality(l));
  }
  std::string text;
  ASSERT_TRUE(EncodeCatalog(est, graph_.labels(), cards, CatalogFormat::kText,
                            &text)
                  .ok());

  auto with_forged = [&](const std::string& key, const std::string& count) {
    const size_t pos = text.find(key + " ");
    PATHEST_CHECK(pos != std::string::npos, "key not found");
    const size_t num_start = pos + key.size() + 1;
    const size_t num_end = text.find_first_of(" \n", num_start);
    std::string forged = text;
    forged.replace(num_start, num_end - num_start, count);
    return forged;
  };
  for (const char* count : {"123456789012", "18446744073709551615"}) {
    for (const char* key : {"labels", "buckets"}) {
      auto loaded = DecodeCatalog(with_forged(key, count));
      ASSERT_FALSE(loaded.ok()) << key << "=" << count;
      EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
    }
  }
}

// Frequencies are counts, so a NaN or infinite bucket sum is as corrupt as
// a negative one: the text and v1 readers refuse it as v2's checksum scan
// does, and `catalog verify` counts the entry as a failure.
TEST_F(FaultInjectionTest, NonFiniteBucketSumsFailTypedInTextAndV1) {
  // Text: a one-bucket num-card entry over the |L_1| = 2 domain.
  auto entry = [](const std::string& sum, const std::string& sumsq) {
    return "pathest-histogram v1\nordering num-card\ntype v-optimal\nk 1\n"
           "labels 2 a b\ncardinalities 1 1\nbuckets 1\n0 2 " +
           sum + " " + sumsq + "\n";
  };
  ASSERT_TRUE(DecodeCatalog(entry("0x1p+1", "0x1p+2")).ok());
  const std::pair<const char*, const char*> forgeries[] = {
      {"nan", "0x0p+0"}, {"inf", "0x0p+0"}, {"-inf", "0x0p+0"},
      {"0x1p+1", "nan"}};
  for (const auto& [sum, sumsq] : forgeries) {
    const std::string what = std::string("sum ") + sum + " sumsq " + sumsq;
    const std::string forged = entry(sum, sumsq);
    auto loaded = DecodeCatalog(forged);
    ASSERT_FALSE(loaded.ok()) << what;
    EXPECT_EQ(loaded.status().code(), StatusCode::kIOError) << what;
    EXPECT_EQ(loaded.status().message(),
              "invalid buckets: bucket sums must be finite and non-negative")
        << what;
    ASSERT_TRUE(WriteFileBytes((dir_ / "entry.stats").string(), forged).ok());
    auto report = VerifyCatalogDir(dir_.string());
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->loaded.empty()) << what;
    EXPECT_EQ(report->failures.size(), 1u) << what;
  }

  // v1: bucket 0's sum forged to +inf, the section re-signed so the value
  // reaches the bucket check. Section 4 is u64 beta, then the begin, end
  // and sum rows of beta values each.
  const std::string image = ValidImage("num-card");
  auto sections = ParseBinarySectionTable(image);
  ASSERT_TRUE(sections.ok());
  uint64_t beta = 0;
  for (const BinarySectionInfo& s : *sections) {
    if (s.id == binfmt::kSectionHistogram) {
      std::memcpy(&beta, image.data() + s.offset, 8);
    }
  }
  ASSERT_GT(beta, 0u);
  std::string corrupt = image;
  std::string le;
  AppendDouble(&le, std::numeric_limits<double>::infinity());
  ASSERT_TRUE(PatchSectionPayload(&corrupt, binfmt::kSectionHistogram,
                                  8 + 16 * beta, le)
                  .ok());
  ExpectTypedFailure(corrupt, "v1 sum +inf");
  EXPECT_EQ(DecodeCatalog(corrupt).status().message(),
            "section histogram: invalid buckets: bucket sums must be finite "
            "and non-negative");
}

// The three unservable shapes of the shape gate (CheckOrderingShape in
// ordering/factory.h): sum-based at |L| = 4096, k = 5 has no 64-bit
// multiset key (and an index of ~1e16 blocks); sum-based at |L| = 4096,
// k = 3 has a key but a stage-3 index of C(4099, 3) − 1 ≈ 1.1e10 blocks,
// past kMaxSumIndexBlocks; num-card at |L| = 20, k = 16 has a domain past
// 2^64. Every reader must refuse each with a typed error right after
// reading (|L|, k): no abort, no hang.
struct UnservableShape {
  const char* ordering;
  uint32_t k;
  uint32_t num_labels;
  const char* refusal;  // the gate's own message
};
constexpr UnservableShape kUnservableShapes[] = {
    {"sum-based", 5, 4096, "no 64-bit multiset key"},
    {"sum-based", 3, 4096, "stage-3 index exceeds"},
    {"num-card", 16, 20, "overflows u64"}};

// `image` (a binary catalog of `shape.ordering`) with its k and label count
// forged to `shape`, CRCs re-signed. The forged count is never honoured:
// the gate must refuse before a single label name is read.
std::string ForgeShape(const std::string& image, const UnservableShape& shape) {
  auto sections = ParseBinarySectionTable(image);
  PATHEST_CHECK(sections.ok(), "section table");
  size_t k_offset = 0;
  for (const BinarySectionInfo& section : *sections) {
    if (section.id != binfmt::kSectionOrdering) continue;
    // k follows the ordering name and the histogram type.
    BoundedReader r(image.data() + section.offset, section.length);
    std::string skip;
    PATHEST_CHECK(r.ReadLengthPrefixedString(&skip, 64, "name").ok(), "name");
    PATHEST_CHECK(r.ReadLengthPrefixedString(&skip, 64, "type").ok(), "type");
    k_offset = section.length - r.remaining();
  }
  std::string forged = image;
  std::string k_le, labels_le;
  AppendU32(&k_le, shape.k);
  AppendU32(&labels_le, shape.num_labels);
  PATHEST_CHECK(PatchSectionPayload(&forged, binfmt::kSectionOrdering,
                                    k_offset, k_le)
                    .ok(),
                "patch k");
  PATHEST_CHECK(
      PatchSectionPayload(&forged, binfmt::kSectionLabels, 0, labels_le).ok(),
      "patch label count");
  return forged;
}

TEST_F(FaultInjectionTest, UnservableShapesFailTypedInEveryReader) {
  for (const UnservableShape& shape : kUnservableShapes) {
    const std::string what = std::string(shape.ordering) +
                             " |L|=" + std::to_string(shape.num_labels) +
                             " k=" + std::to_string(shape.k);
    // Text: a hand-written entry with one bucket over the full domain.
    std::string text = "pathest-histogram v1\nordering " +
                       std::string(shape.ordering) +
                       "\ntype v-optimal\nk " + std::to_string(shape.k) +
                       "\nlabels " + std::to_string(shape.num_labels);
    for (uint32_t i = 0; i < shape.num_labels; ++i) {
      text += " l" + std::to_string(i);
    }
    text += "\ncardinalities";
    for (uint32_t i = 0; i < shape.num_labels; ++i) text += " 1";
    text += "\nbuckets 1\n0 1153203048319815680 0x0p+0 0x0p+0\n";
    auto from_text = DecodeCatalog(text);
    ASSERT_FALSE(from_text.ok()) << "text " << what;
    EXPECT_EQ(from_text.status().code(), StatusCode::kIOError)
        << from_text.status().ToString();
    EXPECT_NE(from_text.status().message().find("unservable shape"),
              std::string::npos)
        << from_text.status().ToString();

    // v1 and v2: a valid image of that ordering with the shape forged. The
    // gate's own message proves it refused before the (absent) names.
    auto from_v1 = DecodeCatalog(
        ForgeShape(ValidImage(shape.ordering), shape));
    ASSERT_FALSE(from_v1.ok()) << "v1 " << what;
    EXPECT_EQ(from_v1.status().code(), StatusCode::kIOError);
    EXPECT_NE(from_v1.status().message().find(shape.refusal),
              std::string::npos)
        << from_v1.status().ToString();
    std::string v2;
    {
      PathHistogram est = BuildEstimator(shape.ordering, 6);
      std::vector<uint64_t> cards;
      for (LabelId l = 0; l < graph_.num_labels(); ++l) {
        cards.push_back(graph_.LabelCardinality(l));
      }
      ASSERT_TRUE(EncodeCatalog(est, graph_.labels(), cards,
                                CatalogFormat::kBinaryV2, &v2)
                      .ok());
    }
    auto from_v2 = DecodeCatalog(ForgeShape(v2, shape));
    ASSERT_FALSE(from_v2.ok()) << "v2 " << what;
    EXPECT_EQ(from_v2.status().code(), StatusCode::kIOError);
    EXPECT_NE(from_v2.status().message().find(shape.refusal),
              std::string::npos)
        << from_v2.status().ToString();
  }
}

TEST_F(FaultInjectionTest, CrashedSaveLeavesPreviousCatalogIntact) {
  // Establish a valid catalog file, then crash a re-save at every stage:
  // short write at several offsets, failed fsync, failed rename. Each must
  // return a Status, leave the published file byte-identical, and leave no
  // temp debris that a reader could mistake for the catalog.
  const std::string path = (dir_ / "crash.stats").string();
  const std::string original_image = ValidImage("sum-based");
  ASSERT_TRUE(AtomicWriteFile(path, original_image).ok());

  const std::string replacement_image = ValidImage("num-card");
  for (size_t fail_at : {size_t{0}, size_t{1}, size_t{17},
                         replacement_image.size() / 2,
                         replacement_image.size() - 1}) {
    ScriptedWriteFaults faults;
    faults.fail_write_at_byte = fail_at;
    ScriptedWriteFaults::Install install(&faults);
    Status st = AtomicWriteFile(path, replacement_image);
    ASSERT_FALSE(st.ok()) << "fail_at=" << fail_at;
    EXPECT_EQ(st.code(), StatusCode::kIOError);
  }
  {
    ScriptedWriteFaults faults;
    faults.fail_sync = true;
    ScriptedWriteFaults::Install install(&faults);
    EXPECT_FALSE(AtomicWriteFile(path, replacement_image).ok());
  }
  {
    ScriptedWriteFaults faults;
    faults.fail_rename = true;
    ScriptedWriteFaults::Install install(&faults);
    EXPECT_FALSE(AtomicWriteFile(path, replacement_image).ok());
  }

  // The previous catalog is byte-identical and still loads.
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, original_image);
  EXPECT_TRUE(LoadPathHistogram(path).ok());
  // No temp debris left behind.
  size_t files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir_)) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 1u);

  // And with no injector, the re-save goes through atomically.
  ASSERT_TRUE(AtomicWriteFile(path, replacement_image).ok());
  auto after = ReadFileBytes(path);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, replacement_image);
}

TEST_F(FaultInjectionTest, CrashedCatalogResaveLeavesEntriesServingAndIntact) {
  // The same guarantee one level up: re-persisting a whole catalog (a v2
  // and a v1 entry) and dying mid-flight must leave every previously
  // saved entry byte-identical and serving.
  const PathHistogram a = BuildEstimator("sum-based", 8);
  const PathHistogram b = BuildEstimator("num-card", 8);
  const std::string path_a = (dir_ / "a.stats").string();
  const std::string path_b = (dir_ / "b.stats").string();
  ASSERT_TRUE(
      SavePathHistogram(a, graph_, path_a, CatalogFormat::kBinaryV2).ok());
  ASSERT_TRUE(
      SavePathHistogram(b, graph_, path_b, CatalogFormat::kBinary).ok());
  auto before_a = ReadFileBytes(path_a);
  auto before_b = ReadFileBytes(path_b);
  ASSERT_TRUE(before_a.ok());
  ASSERT_TRUE(before_b.ok());

  {
    ScriptedWriteFaults faults;
    faults.fail_write_at_byte = 100;
    ScriptedWriteFaults::Install install(&faults);
    EXPECT_FALSE(
        SavePathHistogram(a, graph_, path_a, CatalogFormat::kBinaryV2).ok());
    EXPECT_FALSE(
        SavePathHistogram(b, graph_, path_b, CatalogFormat::kBinary).ok());
  }
  auto after_a = ReadFileBytes(path_a);
  auto after_b = ReadFileBytes(path_b);
  ASSERT_TRUE(after_a.ok());
  ASSERT_TRUE(after_b.ok());
  EXPECT_EQ(*after_a, *before_a);
  EXPECT_EQ(*after_b, *before_b);
  CatalogCache cache;
  auto loaded = serve::LoadCatalogSnapshots(dir_.string(), 1, cache);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->report.fully_healthy());
  EXPECT_EQ(loaded->report.loaded, (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(loaded->snapshots.at("a")->is_mapped());
}

TEST_F(FaultInjectionTest, DegradedCatalogServesHealthyEntries) {
  // One corrupt entry must quarantine, not abort: the healthy entries keep
  // loading and serving.
  ASSERT_TRUE(SavePathHistogram(BuildEstimator("sum-based", 8), graph_,
                                (dir_ / "good.stats").string(),
                                CatalogFormat::kBinary)
                  .ok());
  ASSERT_TRUE(SavePathHistogram(BuildEstimator("lex-card", 8), graph_,
                                (dir_ / "bad.stats").string(),
                                CatalogFormat::kBinary)
                  .ok());

  // Corrupt "bad" with a bit flip inside its histogram section.
  auto bytes = ReadFileBytes((dir_ / "bad.stats").string());
  ASSERT_TRUE(bytes.ok());
  auto sections = ParseBinarySectionTable(*bytes);
  ASSERT_TRUE(sections.ok());
  for (const BinarySectionInfo& s : *sections) {
    if (s.id == binfmt::kSectionHistogram) {
      ASSERT_TRUE(FlipBit(&*bytes, s.offset + 11, 3).ok());
    }
  }
  ASSERT_TRUE(WriteFileBytes((dir_ / "bad.stats").string(), *bytes).ok());

  CatalogCache cache;
  auto loaded = serve::LoadCatalogSnapshots(dir_.string(), 1, cache);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const CatalogLoadReport& report = loaded->report;
  EXPECT_EQ(report.loaded, std::vector<std::string>{"good"});
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_NE(report.failures[0].path.find("bad.stats"), std::string::npos);
  EXPECT_EQ(report.failures[0].section, "histogram");
  EXPECT_EQ(report.failures[0].status.code(), StatusCode::kIOError);

  // The healthy entry answers; the quarantined one has no snapshot.
  ASSERT_EQ(loaded->snapshots.count("good"), 1u);
  EXPECT_EQ(loaded->snapshots.count("bad"), 0u);
  const serve::ServingSnapshot& good = *loaded->snapshots.at("good");
  auto path = LabelPath::Parse("a", good.labels());
  ASSERT_TRUE(path.ok());
  RankScratch scratch;
  EXPECT_GE(good.estimator().Estimate(*path, scratch), 0.0);

  // And VerifyCatalogDir sees exactly the same picture graph-free.
  auto verify = VerifyCatalogDir(dir_.string());
  ASSERT_TRUE(verify.ok());
  EXPECT_EQ(verify->loaded, std::vector<std::string>{"good"});
  ASSERT_EQ(verify->failures.size(), 1u);
  EXPECT_EQ(verify->failures[0].section, "histogram");
}

// ===================== binary catalog v2 faults =====================
//
// The v2 format adds two byte classes v1 never had: INTER-SECTION padding
// (the gap that rounds each section offset up to a 64-byte boundary —
// outside every CRC, never read) and INTERIOR alignment padding (the gap
// that rounds each array offset up to 64 within a payload — inside the
// payload CRC). The suite proves the first is ignorable and the second is
// guarded, that truncation is typed at every section edge and every
// 64-byte multiple, and that a section table placing a section off the
// 64-byte grid or over its predecessor is a typed section error.

class FaultInjectionV2Test : public FaultInjectionTest {
 protected:
  std::string ValidImageV2(const std::string& method = "sum-based") {
    PathHistogram est = BuildEstimator(method, 6);
    std::vector<uint64_t> cards;
    for (LabelId l = 0; l < graph_.num_labels(); ++l) {
      cards.push_back(graph_.LabelCardinality(l));
    }
    std::string bytes;
    PATHEST_CHECK(EncodeCatalog(est, graph_.labels(), cards,
                                CatalogFormat::kBinaryV2, &bytes)
                      .ok(),
                  "v2 write failed");
    return bytes;
  }

  void ExpectTypedFailureV2(const std::string& image,
                            const std::string& what) {
    auto loaded = DecodeCatalog(image);
    ASSERT_FALSE(loaded.ok()) << what << ": corrupt v2 image loaded cleanly";
    EXPECT_EQ(loaded.status().code(), StatusCode::kIOError)
        << what << ": " << loaded.status().ToString();
    EXPECT_FALSE(loaded.status().message().empty()) << what;
  }

  // Full-domain estimates of an image — the bit-level identity anchor.
  std::vector<double> AllEstimates(const LoadedPathHistogram& loaded) {
    std::vector<double> out;
    PathSpace space(graph_.num_labels(), 3);
    space.ForEach(
        [&](const LabelPath& p) { out.push_back(loaded.estimator.Estimate(p)); });
    return out;
  }
};

TEST_F(FaultInjectionV2Test, TruncationAtEverySectionEdgeAndLineFailsTyped) {
  const std::string image = ValidImageV2();
  auto sections = ParseBinarySectionTable(image);
  ASSERT_TRUE(sections.ok());
  ASSERT_EQ(sections->size(), 4u);
  // Every section start and end, each ± 1, plus every 64-byte multiple:
  // the edges where a torn write of the packed layout would land (every
  // section boundary of the older page-aligned layout is among them too).
  std::vector<size_t> cuts;
  for (const BinarySectionInfo& sec : *sections) {
    for (size_t edge : {size_t(sec.offset), size_t(sec.offset + sec.length)}) {
      cuts.insert(cuts.end(), {edge - 1, edge, edge + 1});
    }
  }
  for (size_t line = binfmt::kArrayAlignBytes; line <= image.size();
       line += binfmt::kArrayAlignBytes) {
    cuts.push_back(line);
  }
  size_t swept = 0;
  for (size_t cut : cuts) {
    if (cut >= image.size()) continue;
    ExpectTypedFailureV2(image.substr(0, cut),
                         "truncate to " + std::to_string(cut));
    ++swept;
  }
  ASSERT_GT(swept, image.size() / binfmt::kArrayAlignBytes);
  // Header at byte granularity plus a coarse whole-file sweep.
  for (size_t cut = 0; cut <= binfmt::kHeaderBytes; ++cut) {
    ExpectTypedFailureV2(image.substr(0, cut),
                         "truncate to " + std::to_string(cut));
  }
  for (size_t cut = 0; cut < image.size(); cut += 61) {
    ExpectTypedFailureV2(image.substr(0, cut),
                         "truncate to " + std::to_string(cut));
  }
  // The mmap loader honors the same contract from disk.
  const std::string path = (dir_ / "trunc.stats").string();
  ASSERT_TRUE(
      WriteFileBytes(path, image.substr(0, image.size() - 1)).ok());
  auto mapped = MappedCatalogEntry::Open(path, CatalogVerify::kChecksums);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kIOError);
}

// `image` with section `index`'s table offset replaced by `offset` and the
// table CRC re-signed, so the forgery reaches the placement checks.
std::string ForgeSectionOffset(const std::string& image, size_t index,
                               uint64_t offset) {
  std::string forged = image;
  uint32_t count;
  std::memcpy(&count, forged.data() + 12, 4);
  PATHEST_CHECK(index < count, "section index");
  std::memcpy(forged.data() + binfmt::kHeaderBytes +
                  index * binfmt::kSectionEntryBytes + 8,
              &offset, 8);
  const uint32_t table_crc = Crc32c(forged.data() + binfmt::kHeaderBytes,
                                    count * binfmt::kSectionEntryBytes);
  std::memcpy(forged.data() + 28, &table_crc, 4);
  return forged;
}

// v1 shares v2's section-table parse: a re-signed table whose histogram
// section starts on the cardinalities section's start is a typed section
// error naming the overlap, before any payload CRC is read.
TEST_F(FaultInjectionTest, OverlappingV1SectionsAreSectionErrors) {
  const std::string image = ValidImage();
  auto sections = ParseBinarySectionTable(image);
  ASSERT_TRUE(sections.ok());
  ASSERT_EQ((*sections)[3].id, binfmt::kSectionHistogram);
  const std::string forged =
      ForgeSectionOffset(image, 3, (*sections)[2].offset);
  auto loaded = DecodeCatalog(forged);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  EXPECT_EQ(loaded.status().message().rfind("section histogram: ", 0), 0u)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("overlaps the previous section"),
            std::string::npos)
      << loaded.status().ToString();
  ASSERT_TRUE(WriteFileBytes((dir_ / "overlap.stats").string(), forged).ok());
  auto report = VerifyCatalogDir(dir_.string());
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->failures.size(), 1u);
  EXPECT_EQ(report->failures[0].section, "histogram");
}

TEST_F(FaultInjectionV2Test, MisplacedSectionsAreSectionErrorsAtEveryTier) {
  const std::string image = ValidImageV2();
  auto sections = ParseBinarySectionTable(image);
  ASSERT_TRUE(sections.ok());
  ASSERT_EQ(sections->size(), 4u);
  const BinarySectionInfo& hist = (*sections)[3];
  ASSERT_EQ(hist.id, binfmt::kSectionHistogram);
  struct Forgery {
    std::string what, image, detail;
  };
  const Forgery forgeries[] = {
      // The histogram moved onto the cardinalities section's start: both
      // offsets are 64-aligned and inside the file, but the extents
      // overlap.
      {"overlapping", ForgeSectionOffset(image, 3, (*sections)[2].offset),
       "overlaps the previous section"},
      // The histogram (the last section) moved 8 bytes back: inside the
      // file, but off the 64-byte grid its rows' alignment rests on.
      {"misaligned", ForgeSectionOffset(image, 3, hist.offset - 8),
       "is not 64-byte aligned"},
  };
  // A typed error naming the histogram section and the placement fault.
  auto expect_section_error = [](const Status& st, const Forgery& f) {
    EXPECT_EQ(st.code(), StatusCode::kIOError) << f.what;
    EXPECT_EQ(st.message().rfind("section histogram: ", 0), 0u)
        << f.what << ": " << st.ToString();
    EXPECT_NE(st.message().find(f.detail), std::string::npos)
        << f.what << ": " << st.ToString();
  };
  for (const Forgery& f : forgeries) {
    auto loaded = DecodeCatalog(f.image);
    ASSERT_FALSE(loaded.ok()) << f.what;
    expect_section_error(loaded.status(), f);
    const std::string path = (dir_ / (f.what + ".stats")).string();
    ASSERT_TRUE(WriteFileBytes(path, f.image).ok());
    for (CatalogVerify tier :
         {CatalogVerify::kTrusted, CatalogVerify::kChecksums}) {
      auto mapped = MappedCatalogEntry::Open(path, tier);
      ASSERT_FALSE(mapped.ok()) << f.what << " " << CatalogVerifyName(tier);
      expect_section_error(mapped.status(), f);
    }
    auto report = VerifyCatalogDir(dir_.string());
    ASSERT_TRUE(report.ok());
    ASSERT_EQ(report->failures.size(), 1u) << f.what;
    EXPECT_EQ(report->failures[0].section, "histogram");
    std::filesystem::remove(path);
  }
}

TEST_F(FaultInjectionV2Test, PaddingFlipsIgnoredOutsideCrcsCaughtInside) {
  const std::string image = ValidImageV2();
  auto sections = ParseBinarySectionTable(image);
  ASSERT_TRUE(sections.ok());
  ASSERT_EQ(sections->size(), 4u);  // version 5: four for every ordering
  auto baseline = DecodeCatalog(image);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const std::vector<double> expect = AllEstimates(*baseline);

  // Inter-section padding — [end of payload i, offset of section i+1) and
  // the gap between the section table and the first section — is outside
  // every CRC and never read: flips there must be PROVABLY ignored (the
  // file still passes the strictest tier and serves bit-identical
  // estimates).
  std::vector<std::pair<size_t, size_t>> gaps;
  gaps.emplace_back(
      binfmt::kHeaderBytes + sections->size() * binfmt::kSectionEntryBytes,
      (*sections)[0].offset);
  for (size_t i = 0; i + 1 < sections->size(); ++i) {
    gaps.emplace_back((*sections)[i].offset + (*sections)[i].length,
                      (*sections)[i + 1].offset);
  }
  size_t padding_flips = 0;
  for (const auto& [lo, hi] : gaps) {
    ASSERT_LE(lo, hi);
    if (lo == hi) continue;  // a payload that ended on a 64-byte boundary
    for (size_t at : {lo, (lo + hi) / 2, hi - 1}) {
      for (int bit : {0, 7}) {
        std::string corrupt = image;
        ASSERT_TRUE(FlipBit(&corrupt, at, bit).ok());
        auto loaded = DecodeCatalog(corrupt);
        ASSERT_TRUE(loaded.ok())
            << "padding flip at " << at << " rejected: "
            << loaded.status().ToString();
        EXPECT_EQ(AllEstimates(*loaded), expect)
            << "padding flip at " << at << " changed an estimate";
        ++padding_flips;
      }
    }
  }
  ASSERT_GT(padding_flips, 0u) << "no inter-section padding to sweep";

  // Interior alignment padding — the [prolog end, first array) gap inside
  // the histogram payload — is INSIDE the payload CRC: a flip there must
  // be detected even though no parser ever reads it.
  for (const BinarySectionInfo& s : *sections) {
    if (s.id != binfmt::kSectionHistogram) continue;
    ASSERT_GT(s.length, binfmt::kArrayAlignBytes);
    // The prolog is 16 bytes; the rows start at the 64-byte mark.
    for (size_t in_payload : {size_t{16}, size_t{40},
                              size_t{binfmt::kArrayAlignBytes - 1}}) {
      std::string corrupt = image;
      ASSERT_TRUE(FlipBit(&corrupt, s.offset + in_payload, 3).ok());
      ExpectTypedFailureV2(corrupt,
                           std::string("interior padding flip in ") +
                               binfmt::SectionName(s.id));
    }
  }
}

TEST_F(FaultInjectionV2Test, CrashedV2SaveLeavesV1FileByteIdentical) {
  // The upgrade story: converting a v1 entry to v2 in place crashes at
  // every stage — the published v1 file must stay byte-identical and
  // loadable, with no temp debris.
  const std::string path = (dir_ / "upgrade.stats").string();
  const std::string v1_image = ValidImage("sum-based");
  ASSERT_TRUE(AtomicWriteFile(path, v1_image).ok());
  auto loaded = LoadPathHistogram(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::vector<double> expect = AllEstimates(*loaded);

  // Fault offsets from the v2 image itself: its first, middle and last
  // byte and every section start (a fixed offset could lie past a small
  // packed image and never fire).
  std::string v2_image;
  ASSERT_TRUE(EncodeCatalog(loaded->estimator, loaded->labels,
                            loaded->label_cardinalities,
                            CatalogFormat::kBinaryV2, &v2_image)
                  .ok());
  auto v2_sections = ParseBinarySectionTable(v2_image);
  ASSERT_TRUE(v2_sections.ok());
  std::vector<size_t> fail_offsets = {0, v2_image.size() / 2,
                                      v2_image.size() - 1};
  for (const BinarySectionInfo& sec : *v2_sections) {
    fail_offsets.push_back(sec.offset);
  }
  for (size_t fail_at : fail_offsets) {
    ScriptedWriteFaults faults;
    faults.fail_write_at_byte = fail_at;
    ScriptedWriteFaults::Install install(&faults);
    Status st =
        SaveLoadedPathHistogram(*loaded, path, CatalogFormat::kBinaryV2);
    ASSERT_FALSE(st.ok()) << "fail_at=" << fail_at;
    EXPECT_EQ(st.code(), StatusCode::kIOError);
  }
  {
    ScriptedWriteFaults faults;
    faults.fail_sync = true;
    ScriptedWriteFaults::Install install(&faults);
    EXPECT_FALSE(
        SaveLoadedPathHistogram(*loaded, path, CatalogFormat::kBinaryV2)
            .ok());
  }
  {
    ScriptedWriteFaults faults;
    faults.fail_rename = true;
    ScriptedWriteFaults::Install install(&faults);
    EXPECT_FALSE(
        SaveLoadedPathHistogram(*loaded, path, CatalogFormat::kBinaryV2)
            .ok());
  }

  // Byte-identical v1, still sniffs as v1, still loads, no debris.
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, v1_image);
  auto format = SniffCatalogFormat(path);
  ASSERT_TRUE(format.ok());
  EXPECT_EQ(*format, CatalogFormat::kBinary);
  size_t files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir_)) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 1u);

  // With the injector gone the conversion lands, and the v2 file serves
  // the exact same estimates.
  ASSERT_TRUE(
      SaveLoadedPathHistogram(*loaded, path, CatalogFormat::kBinaryV2).ok());
  format = SniffCatalogFormat(path);
  ASSERT_TRUE(format.ok());
  EXPECT_EQ(*format, CatalogFormat::kBinaryV2);
  auto v2 = LoadPathHistogram(path);
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_EQ(AllEstimates(*v2), expect);
}

}  // namespace
}  // namespace pathest
