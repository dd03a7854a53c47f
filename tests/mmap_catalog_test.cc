// Tests for zero-copy estimator construction over mapped binary catalog
// v2 files (core/mapped_catalog.h + util/mmap_file.h): bit-identity with
// the copying loader across the whole serializable surface, the tiered
// verification matrix, and the mapping primitive itself.

#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/mapped_catalog.h"
#include "core/serialize.h"
#include "ordering/factory.h"
#include "ordering/ranking.h"
#include "ordering/sum_based.h"
#include "oracles/histogram_oracle.h"
#include "oracles/ordering_oracle.h"
#include "path/selectivity.h"
#include "test_util.h"
#include "util/crc32c.h"
#include "util/mmap_file.h"
#include "util/safe_io.h"

namespace pathest {
namespace {

namespace fs = std::filesystem;
using testing_util::SmallGraph;

fs::path TestDir() {
  const fs::path dir = fs::temp_directory_path() / "pathest_mmap_test";
  fs::create_directories(dir);
  return dir;
}

PathHistogram BuildOn(const Graph& graph, const std::string& method,
                      size_t k, size_t beta) {
  auto map = ComputeSelectivities(graph, k);
  PATHEST_CHECK(map.ok(), "selectivities failed");
  auto ordering = MakeOrdering(method, graph, k);
  PATHEST_CHECK(ordering.ok(), "ordering failed");
  auto est = PathHistogram::Build(*map, std::move(*ordering),
                                  HistogramType::kVOptimal, beta);
  PATHEST_CHECK(est.ok(), "build failed");
  return std::move(*est);
}

std::string SaveV2(const Graph& graph, const PathHistogram& est,
                   const std::string& filename) {
  const std::string path = (TestDir() / filename).string();
  PATHEST_CHECK(
      SavePathHistogram(est, graph, path, CatalogFormat::kBinaryV2).ok(),
      "v2 save failed");
  return path;
}

// ---------------------------------------------------------- MappedFile

TEST(MappedFile, MissingFileIsNotFound) {
  EXPECT_EQ(MappedFile::Open((TestDir() / "missing").string())
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(StatFileId((TestDir() / "missing").string()).status().code(),
            StatusCode::kNotFound);
}

TEST(MappedFile, EmptyFileMapsToEmptyView) {
  const std::string path = (TestDir() / "empty").string();
  { std::ofstream(path, std::ios::trunc); }
  auto file = MappedFile::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_TRUE(file->valid());
  EXPECT_EQ(file->size(), 0u);
  EXPECT_EQ(file->view().size(), 0u);
  fs::remove(path);
}

TEST(MappedFile, ContentsMatchAndIdChangesOnRewrite) {
  const std::string path = (TestDir() / "blob").string();
  ASSERT_TRUE(AtomicWriteFile(path, "first generation").ok());
  auto a = MappedFile::Open(path);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->view(), "first generation");
  // The atomic rewrite publishes a NEW inode: ids must differ even though
  // the size could in principle coincide.
  ASSERT_TRUE(AtomicWriteFile(path, "later generation").ok());
  auto b = MappedFile::Open(path);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->view(), "later generation");
  EXPECT_FALSE(a->id() == b->id());
  // The old mapping still serves the OLD bytes (MAP_PRIVATE + the rename
  // discipline: nothing ever writes the old inode in place).
  EXPECT_EQ(a->view(), "first generation");
  fs::remove(path);
}

TEST(MappedFile, DirectoryIsInvalidArgument) {
  EXPECT_EQ(MappedFile::Open(TestDir().string()).status().code(),
            StatusCode::kInvalidArgument);
}

// --------------------------------------- bit-identity across the surface

class MmapIdentityTest
    : public ::testing::TestWithParam<std::tuple<std::string, size_t>> {};

TEST_P(MmapIdentityTest, MappedEstimatorIsBitIdenticalToCopyingLoader) {
  const auto& [method, k] = GetParam();
  Graph graph = SmallGraph();
  PathHistogram original = BuildOn(graph, method, k, 5);
  const std::string path =
      SaveV2(graph, original,
             "ident_" + method + "_k" + std::to_string(k) + ".stats");

  auto copied = LoadPathHistogram(path);
  ASSERT_TRUE(copied.ok()) << copied.status().ToString();
  auto mapped = MappedCatalogEntry::Open(path, CatalogVerify::kChecksums);
  ASSERT_TRUE(mapped.ok()) << method << " k=" << k << ": "
                           << mapped.status().ToString();

  const std::string canonical = method == "sum-card" ? "sum-based" : method;
  EXPECT_EQ((*mapped)->ordering_name(), canonical);
  EXPECT_EQ((*mapped)->estimator().ordering().name(), canonical);
  EXPECT_EQ((*mapped)->labels().names(), graph.labels().names());
  EXPECT_EQ((*mapped)->histogram_type(), HistogramType::kVOptimal);
  EXPECT_EQ((*mapped)->mapped_bytes(), fs::file_size(path));
  EXPECT_GT((*mapped)->resident_bytes(), 0u);

  // Zero-copy: the serving rows are borrowed from the mapping, and each
  // starts on a 64-byte boundary (64-aligned section offsets plus
  // 64-aligned interior offsets over a page-aligned mapping base).
  const Histogram& flat = (*mapped)->estimator().flat();
  EXPECT_FALSE(flat.owns_storage());
  EXPECT_GT(flat.MappedBytes(), 0u);
  EXPECT_EQ(flat.ResidentBytes(), 0u);
  auto aligned = [](const void* row) {
    return reinterpret_cast<uintptr_t>(row) % binfmt::kArrayAlignBytes == 0;
  };
  EXPECT_TRUE(aligned(flat.begins().data()));
  EXPECT_TRUE(aligned(flat.sums().data()));
  EXPECT_TRUE(aligned(flat.sumsqs().data()));
  // All three rows are borrowed: begin, sum and sumsq.
  EXPECT_EQ(flat.MappedBytes(), flat.num_buckets() * 24);
  if (method.rfind("sum-", 0) == 0) {
    // The stage-2/3 tables are not in the file: the mapped ordering takes
    // the shape's shared tables, the very ones the original ordering uses.
    EXPECT_EQ(&static_cast<const SumBasedOrdering&>(
                   (*mapped)->estimator().ordering())
                   .tables(),
              &static_cast<const SumBasedOrdering&>(original.ordering())
                   .tables());
  }

  // Bit-identical to BOTH the original estimator and the copying loader,
  // over the entire domain — the acceptance criterion of the mmap path.
  PathSpace space(graph.num_labels(), k);
  const Estimator& me = (*mapped)->estimator();
  RankScratch scratch;
  space.ForEach([&](const LabelPath& p) {
    const double want = original.Estimate(p);
    ASSERT_EQ(me.Estimate(p, scratch), want)
        << method << " k=" << k << " " << p.ToIdString();
    ASSERT_EQ(copied->estimator.Estimate(p), want)
        << method << " k=" << k << " " << p.ToIdString();
  });

  // Rank/Unrank round-trips through the mapped ordering agree with the
  // original ordering everywhere (for the sum family this runs both
  // directions over the shared stage-2/3 tables end to end).
  const Ordering& mo = me.ordering();
  const Ordering& oo = original.ordering();
  for (uint64_t i = 0; i < space.size(); ++i) {
    const LabelPath p = oo.Unrank(i);
    ASSERT_EQ(mo.Rank(p), i) << method << " k=" << k;
    ASSERT_EQ(mo.Unrank(i).ToIdString(), p.ToIdString())
        << method << " k=" << k;
  }
  if (method.rfind("sum-", 0) == 0) {
    // And both equal the first-principles oracle on every index.
    std::vector<uint64_t> cards(graph.num_labels());
    for (LabelId l = 0; l < graph.num_labels(); ++l) {
      cards[l] = graph.LabelCardinality(l);
    }
    const RankingRule rule = method == "sum-alph" ? RankingRule::kAlphabetical
                                                  : RankingRule::kCardinality;
    const oracles::SumOrderingOracle oracle(
        space, LabelRanking::Make(rule, graph.labels(), cards));
    const std::vector<uint64_t> table = oracle.UnrankTable();
    EXPECT_EQ(oracles::FirstOrderingMismatch(mo, table), "")
        << "mapped " << method << " k=" << k;
    EXPECT_EQ(oracles::FirstOrderingMismatch(oo, table), "")
        << "owned " << method << " k=" << k;
  }
  fs::remove(path);
}

INSTANTIATE_TEST_SUITE_P(
    AllOrderingsAllK, MmapIdentityTest,
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

// ------------------------------------------------- verification matrix

class VerifyTierTest : public ::testing::Test {
 protected:
  VerifyTierTest() : graph_(SmallGraph()) {
    est_ = std::make_unique<PathHistogram>(
        BuildOn(graph_, "sum-based", 3, 6));
    path_ = SaveV2(graph_, *est_, "verify_tiers.stats");
  }
  ~VerifyTierTest() override { fs::remove(path_); }

  // Rewrites the file with one byte flipped at `offset`.
  void FlipByteAt(size_t offset) {
    std::string bytes;
    PATHEST_CHECK(ReadFileToString(path_, &bytes).ok(), "read failed");
    PATHEST_CHECK(offset < bytes.size(), "offset past file");
    bytes[offset] ^= 0x01;
    PATHEST_CHECK(AtomicWriteFile(path_, bytes).ok(), "write failed");
  }

  // File offset of section `section_id`'s payload, read from the section
  // table (the writer packs sections, so no offset is a constant).
  size_t SectionOffset(uint32_t section_id) {
    std::string bytes;
    PATHEST_CHECK(ReadFileToString(path_, &bytes).ok(), "read failed");
    uint32_t count;
    std::memcpy(&count, bytes.data() + 12, 4);
    for (uint32_t i = 0; i < count; ++i) {
      const size_t at = binfmt::kHeaderBytes + i * binfmt::kSectionEntryBytes;
      uint32_t id;
      std::memcpy(&id, bytes.data() + at, 4);
      if (id == section_id) {
        uint64_t offset;
        std::memcpy(&offset, bytes.data() + at + 8, 8);
        return offset;
      }
    }
    PATHEST_CHECK(false, "section missing");
    return 0;
  }

  // Rewrites the file after `forge` edits the histogram payload (given
  // its β and layout), with the section CRC and the table CRC re-signed so
  // only structural or semantic checks can see the edit.
  template <typename Forge>
  void ForgeHistogramResigned(Forge forge) {
    std::string bytes;
    PATHEST_CHECK(ReadFileToString(path_, &bytes).ok(), "read failed");
    const size_t sec = SectionOffset(binfmt::kSectionHistogram);
    uint64_t beta;
    std::memcpy(&beta, bytes.data() + sec, 8);
    const binfmt::HistogramLayoutV2 hl = binfmt::HistogramLayout(beta);
    forge(bytes.data() + sec, beta, hl);
    uint32_t count;
    std::memcpy(&count, bytes.data() + 12, 4);
    for (uint32_t i = 0; i < count; ++i) {
      const size_t at = binfmt::kHeaderBytes + i * binfmt::kSectionEntryBytes;
      uint32_t id;
      std::memcpy(&id, bytes.data() + at, 4);
      if (id != binfmt::kSectionHistogram) continue;
      const uint32_t crc = Crc32c(bytes.data() + sec, hl.payload_bytes);
      std::memcpy(bytes.data() + at + 4, &crc, 4);
    }
    const uint32_t tcrc = Crc32c(bytes.data() + binfmt::kHeaderBytes,
                                 count * binfmt::kSectionEntryBytes);
    std::memcpy(bytes.data() + 28, &tcrc, 4);
    PATHEST_CHECK(AtomicWriteFile(path_, bytes).ok(), "write failed");
  }

  Graph graph_;
  std::unique_ptr<PathHistogram> est_;
  std::string path_;
};

TEST_F(VerifyTierTest, AllTiersAcceptAHealthyFile) {
  for (CatalogVerify tier :
       {CatalogVerify::kTrusted, CatalogVerify::kChecksums}) {
    auto entry = MappedCatalogEntry::Open(path_, tier);
    ASSERT_TRUE(entry.ok())
        << CatalogVerifyName(tier) << ": " << entry.status().ToString();
    // Identical estimates regardless of how much verification ran.
    PathSpace space(graph_.num_labels(), 3);
    RankScratch scratch;
    space.ForEach([&](const LabelPath& p) {
      ASSERT_EQ((*entry)->estimator().Estimate(p, scratch),
                est_->Estimate(p));
    });
  }
}

TEST_F(VerifyTierTest, BulkFlipPassesTrustedButFailsCheckedTiers) {
  // Flip a low mantissa byte inside the sum row — a location no always-on
  // shape check can see (the value stays finite and positive), only the
  // bulk CRC.
  uint64_t beta;
  {
    std::string bytes;
    ASSERT_TRUE(ReadFileToString(path_, &bytes).ok());
    std::memcpy(&beta,
                bytes.data() + SectionOffset(binfmt::kSectionHistogram), 8);
  }
  FlipByteAt(SectionOffset(binfmt::kSectionHistogram) +
             binfmt::HistogramLayout(beta).sum_off + 3);
  // kTrusted skips bulk CRCs by contract — it must still OPEN (shape
  // prologs are intact); this is exactly why it is only for bytes already
  // verified this generation.
  EXPECT_TRUE(
      MappedCatalogEntry::Open(path_, CatalogVerify::kTrusted).ok());
  auto entry = MappedCatalogEntry::Open(path_, CatalogVerify::kChecksums);
  ASSERT_FALSE(entry.ok());
  EXPECT_EQ(entry.status().code(), StatusCode::kIOError);
}

TEST_F(VerifyTierTest, MetadataFlipFailsEveryTier) {
  // Metadata sections are authenticated even under kTrusted. Flip a byte
  // inside the ordering section (section 1, the first payload).
  FlipByteAt(SectionOffset(binfmt::kSectionOrdering) + 2);
  for (CatalogVerify tier :
       {CatalogVerify::kTrusted, CatalogVerify::kChecksums}) {
    EXPECT_FALSE(MappedCatalogEntry::Open(path_, tier).ok())
        << CatalogVerifyName(tier);
  }
}

TEST_F(VerifyTierTest, NonFiniteOrNegativeRowsFailFromChecksums) {
  // Re-signed sum and sumsq rows that no count can produce: the section
  // CRC matches, so only kChecksums' row scan can refuse them. kTrusted
  // does not scan and opens them.
  const std::string pristine = [&] {
    std::string bytes;
    PATHEST_CHECK(ReadFileToString(path_, &bytes).ok(), "read failed");
    return bytes;
  }();
  struct Forgery {
    const char* what;
    bool sumsq;  // which row: sumsq, else sum
    double value;
  };
  const Forgery forgeries[] = {
      {"NaN sum", false, std::numeric_limits<double>::quiet_NaN()},
      {"infinite sum", false, std::numeric_limits<double>::infinity()},
      {"negative sum", false, -1.0},
      {"negative sumsq", true, -0.5},
  };
  for (const Forgery& f : forgeries) {
    ASSERT_TRUE(AtomicWriteFile(path_, pristine).ok());
    ForgeHistogramResigned([&](char* payload, uint64_t beta,
                               const binfmt::HistogramLayoutV2& hl) {
      const uint64_t off = f.sumsq ? hl.sumsq_off : hl.sum_off;
      std::memcpy(payload + off + (beta - 1) * 8, &f.value, 8);
    });
    EXPECT_TRUE(MappedCatalogEntry::Open(path_, CatalogVerify::kTrusted).ok())
        << f.what;
    auto refused = MappedCatalogEntry::Open(path_, CatalogVerify::kChecksums);
    ASSERT_FALSE(refused.ok()) << f.what;
    EXPECT_EQ(refused.status().code(), StatusCode::kIOError);
    EXPECT_NE(refused.status().message().find(
                  "section histogram: sum or sumsq row not finite"),
              std::string::npos)
        << refused.status().ToString();
    EXPECT_FALSE(LoadPathHistogram(path_).ok()) << f.what;
  }
}

TEST_F(VerifyTierTest, WellFormedSumIsServedAsWrittenAtEveryTier) {
  // A WRONG but finite, non-negative, CRC-consistent sum row. No row of a
  // version-5 file is derived from another, so there is nothing for any
  // tier to compare it with: every tier opens it and serves the forged
  // sums divided by the bucket widths, as a lookup always does.
  const double forged = 42.0;
  ForgeHistogramResigned([&](char* payload, uint64_t beta,
                             const binfmt::HistogramLayoutV2& hl) {
    for (uint64_t b = 0; b < beta; ++b) {
      std::memcpy(payload + hl.sum_off + b * 8, &forged, 8);
    }
  });
  const oracles::HistogramOracle oracle(est_->histogram());
  for (CatalogVerify tier :
       {CatalogVerify::kTrusted, CatalogVerify::kChecksums}) {
    auto entry = MappedCatalogEntry::Open(path_, tier);
    ASSERT_TRUE(entry.ok())
        << CatalogVerifyName(tier) << ": " << entry.status().ToString();
    const Histogram& flat = (*entry)->estimator().flat();
    for (uint64_t i = 0; i < oracle.domain_size(); ++i) {
      ASSERT_EQ(flat.EstimatePoint(i),
                forged / static_cast<double>(oracle.BucketFor(i).width()))
          << CatalogVerifyName(tier) << " index " << i;
    }
  }
}

TEST_F(VerifyTierTest, TrustedTierLooksUpInsideTheRowsOverForgedBegins) {
  // Re-signed begin rows that break the order the lookup assumes: one
  // that falls after its first entry, and one whose entries lie past the
  // domain. kChecksums' scan refuses both. kTrusted does not scan, so it
  // serves them: wrong answers, but every lookup must stay inside the β
  // rows (the ASan build runs this too).
  const std::string pristine = [&] {
    std::string bytes;
    PATHEST_CHECK(ReadFileToString(path_, &bytes).ok(), "read failed");
    return bytes;
  }();
  const uint64_t domain = PathSpace(graph_.num_labels(), 3).size();
  using Forge = void (*)(uint64_t* begin, uint64_t beta, uint64_t domain);
  const std::vector<std::pair<const char*, Forge>> forgeries = {
      {"descending",
       [](uint64_t* begin, uint64_t beta, uint64_t domain) {
         for (uint64_t b = 1; b < beta; ++b) begin[b] = domain - b;
       }},
      {"past the domain",
       [](uint64_t* begin, uint64_t beta, uint64_t domain) {
         begin[1] = domain;
         begin[beta - 1] = ~uint64_t{0};
       }},
  };
  for (const auto& [what, forge] : forgeries) {
    ASSERT_TRUE(AtomicWriteFile(path_, pristine).ok());
    ForgeHistogramResigned([&, forge = forge](
                               char* payload, uint64_t beta,
                               const binfmt::HistogramLayoutV2& hl) {
      std::vector<uint64_t> begin(beta);
      std::memcpy(begin.data(), payload + hl.begin_off, beta * 8);
      forge(begin.data(), beta, domain);
      std::memcpy(payload + hl.begin_off, begin.data(), beta * 8);
    });
    auto refused = MappedCatalogEntry::Open(path_, CatalogVerify::kChecksums);
    ASSERT_FALSE(refused.ok()) << what;
    EXPECT_NE(refused.status().message().find("begin row"), std::string::npos)
        << refused.status().ToString();
    EXPECT_FALSE(LoadPathHistogram(path_).ok()) << what;

    auto trusted = MappedCatalogEntry::Open(path_, CatalogVerify::kTrusted);
    ASSERT_TRUE(trusted.ok()) << what << ": " << trusted.status().ToString();
    const Histogram& flat = (*trusted)->estimator().flat();
    const std::span<const uint64_t> begins = flat.begins();
    const std::span<const double> sums = flat.sums();
    for (uint64_t i = 0; i < domain; ++i) {
      const size_t b = flat.FindBucket(i);
      ASSERT_LT(b, flat.num_buckets()) << what << " index " << i;
      // The width comes from the found bucket's begin and its successor
      // (or the domain end), so it reads inside the rows too; over these
      // rows it may wrap or be 0, and the quotient is then whatever IEEE
      // division gives (compared as bits: it may be NaN).
      const uint64_t end = b + 1 < begins.size() ? begins[b + 1] : domain;
      const double want = sums[b] / static_cast<double>(end - begins[b]);
      ASSERT_EQ(std::bit_cast<uint64_t>(flat.EstimatePoint(i)),
                std::bit_cast<uint64_t>(want))
          << what << " index " << i;
      // Ranges walk from the same lookup, bounded by β.
      (void)flat.EstimateRange(i, domain);
    }
    RankScratch scratch;
    PathSpace(graph_.num_labels(), 3).ForEach([&](const LabelPath& p) {
      (void)(*trusted)->estimator().Estimate(p, scratch);
    });
  }
}

TEST_F(VerifyTierTest, V1FileIsRejectedNotMisread) {
  const std::string v1 = (TestDir() / "v1_input.stats").string();
  ASSERT_TRUE(
      SavePathHistogram(*est_, graph_, v1, CatalogFormat::kBinary).ok());
  for (CatalogVerify tier :
       {CatalogVerify::kTrusted, CatalogVerify::kChecksums}) {
    auto entry = MappedCatalogEntry::Open(v1, tier);
    ASSERT_FALSE(entry.ok());
    EXPECT_EQ(entry.status().code(), StatusCode::kIOError);
  }
  fs::remove(v1);
}

}  // namespace
}  // namespace pathest
