// The shared stage-2/3 tables of the sum-based ordering (SumTables in
// ordering/sum_based.h) and the catalog rule that follows from them:
// binary catalog v2 stores no tables, so its section table ends at id 4
// and the ids 5 and 6 that once held the tables are refused.

#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/mapped_catalog.h"
#include "core/serialize.h"
#include "oracles/ordering_oracle.h"
#include "ordering/sum_based.h"
#include "util/crc32c.h"
#include "util/fault_injection.h"

namespace pathest {
namespace {

// A label set with deliberately non-monotone cardinalities, so the
// alphabetical and cardinality rankings differ.
struct LabelStats {
  LabelDictionary labels;
  std::vector<uint64_t> cards;
};

LabelStats MakeStats(size_t num_labels) {
  LabelStats stats;
  for (size_t i = 0; i < num_labels; ++i) {
    stats.labels.Intern("l" + std::to_string(i));
    stats.cards.push_back(10 + (i * 37 + 13) % 100);
  }
  return stats;
}

std::unique_ptr<SumBasedOrdering> MakeSum(const LabelStats& stats, size_t k,
                                          RankingRule rule) {
  return std::make_unique<SumBasedOrdering>(
      PathSpace(stats.labels.size(), k),
      LabelRanking::Make(rule, stats.labels, stats.cards));
}

std::vector<uint64_t> OracleTable(const LabelStats& stats, size_t k,
                                  RankingRule rule) {
  return oracles::SumOrderingOracle(
             PathSpace(stats.labels.size(), k),
             LabelRanking::Make(rule, stats.labels, stats.cards))
      .UnrankTable();
}

TEST(SumTablesTest, ConcurrentOrderingsShareOneTablePerShape) {
  constexpr size_t kThreads = 4;
  constexpr size_t kRounds = 3;
  constexpr size_t k = 3;
  // Two shapes no other test of this binary uses, so the first ordering
  // of each is built by one of the racing threads.
  const LabelStats five = MakeStats(5);
  const LabelStats seven = MakeStats(7);
  const std::vector<uint64_t> want_five =
      OracleTable(five, k, RankingRule::kCardinality);
  const std::vector<uint64_t> want_seven =
      OracleTable(seven, k, RankingRule::kAlphabetical);

  // Every ordering stays alive to the end, so each shape has a user
  // throughout and must never be built twice.
  std::vector<std::vector<std::unique_ptr<SumBasedOrdering>>> built(kThreads);
  std::vector<std::string> mismatch(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (size_t round = 0; round < kRounds; ++round) {
        // Half the threads ask for each shape first.
        const bool five_first = (t + round) % 2 == 0;
        for (const bool is_five : {five_first, !five_first}) {
          auto ordering =
              is_five ? MakeSum(five, k, RankingRule::kCardinality)
                      : MakeSum(seven, k, RankingRule::kAlphabetical);
          if (mismatch[t].empty()) {
            mismatch[t] = oracles::FirstOrderingMismatch(
                *ordering, is_five ? want_five : want_seven);
          }
          built[t].push_back(std::move(ordering));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const std::shared_ptr<const SumTables> five_tables = SumTables::For(5, k);
  const std::shared_ptr<const SumTables> seven_tables = SumTables::For(7, k);
  ASSERT_NE(five_tables, seven_tables);
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatch[t], "") << "thread " << t;
    ASSERT_EQ(built[t].size(), 2 * kRounds);
    for (const auto& ordering : built[t]) {
      const SumTables& want =
          ordering->space().num_labels() == 5 ? *five_tables : *seven_tables;
      EXPECT_EQ(&ordering->tables(), &want) << "thread " << t;
      EXPECT_EQ(ordering->tables().index.keys.data(), want.index.keys.data());
    }
  }
}

TEST(SumTablesTest, ShapeIsRebuiltAfterItsLastUserIsGone) {
  constexpr size_t k = 4;
  const LabelStats six = MakeStats(6);
  const std::vector<uint64_t> want =
      OracleTable(six, k, RankingRule::kCardinality);
  std::weak_ptr<const SumTables> first;
  {
    const auto a = MakeSum(six, k, RankingRule::kCardinality);
    const auto b = MakeSum(six, k, RankingRule::kAlphabetical);
    first = SumTables::For(6, k);
    EXPECT_EQ(first.lock().get(), &a->tables());
    EXPECT_EQ(&b->tables(), &a->tables());
  }
  // Nothing serves (6, 4) any more: the registry let its tables go.
  EXPECT_TRUE(first.expired());

  const auto again = MakeSum(six, k, RankingRule::kCardinality);
  EXPECT_EQ(oracles::FirstOrderingMismatch(*again, want), "");
}

// ------------------------------------------------------ catalog v2 rules

std::string ReadGolden(const std::string& name) {
  std::ifstream in(std::string(PATHEST_SOURCE_DIR) + "/tests/golden/" + name,
                   std::ios::binary);
  PATHEST_CHECK(in.is_open(), "golden fixture missing");
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("pathest_sum_tables_" + name))
      .string();
}

// The version-6 golden's sections as (id, payload) pairs, in id order.
using Sections = std::vector<std::pair<uint32_t, std::string>>;
Sections GoldenSections() {
  const std::string image = ReadGolden("catalog_v2_version6.stats");
  auto table = ParseBinarySectionTable(image);
  PATHEST_CHECK(table.ok(), "golden section table unreadable");
  Sections sections;
  for (const BinarySectionInfo& s : *table) {
    sections.emplace_back(s.id, image.substr(s.offset, s.length));
  }
  return sections;
}

// A signed version-6 image holding `sections` (id, payload), each section
// at the first multiple of `align` after the previous one: 64 packs them
// the way the writer does.
std::string AssembleV2(const Sections& sections,
                       uint64_t align = binfmt::kArrayAlignBytes) {
  const uint64_t table_bytes = sections.size() * binfmt::kSectionEntryBytes;
  std::string table, body;
  uint64_t end = binfmt::kHeaderBytes + table_bytes;
  for (const auto& [id, payload] : sections) {
    const uint64_t offset = binfmt::AlignUp(end, align);
    body.resize(offset - binfmt::kHeaderBytes - table_bytes, '\0');
    body += payload;
    const uint32_t crc = Crc32c(payload.data(), payload.size());
    const uint64_t length = payload.size();
    table.append(reinterpret_cast<const char*>(&id), 4);
    table.append(reinterpret_cast<const char*>(&crc), 4);
    table.append(reinterpret_cast<const char*>(&offset), 8);
    table.append(reinterpret_cast<const char*>(&length), 8);
    end = offset + length;
  }
  std::string image(reinterpret_cast<const char*>(binfmt::kMagicV2),
                    binfmt::kMagicBytes);
  const uint32_t version = binfmt::kVersionV2;
  const uint32_t count = static_cast<uint32_t>(sections.size());
  image.append(reinterpret_cast<const char*>(&version), 4);
  image.append(reinterpret_cast<const char*>(&count), 4);
  image.append(reinterpret_cast<const char*>(&end), 8);
  const uint32_t header_crc = Crc32c(image.data(), image.size());
  const uint32_t table_crc = Crc32c(table.data(), table.size());
  image.append(reinterpret_cast<const char*>(&header_crc), 4);
  image.append(reinterpret_cast<const char*>(&table_crc), 4);
  return image + table + body;
}

// Every tier of both readers refuses the file at `path` with `error`.
void ExpectRefusedAtEveryTier(const std::string& path,
                              const std::string& error) {
  auto copied = LoadPathHistogram(path);
  ASSERT_FALSE(copied.ok()) << error;
  EXPECT_EQ(copied.status().code(), StatusCode::kIOError);
  EXPECT_EQ(copied.status().message(), error);
  for (CatalogVerify tier : {CatalogVerify::kTrusted,
                             CatalogVerify::kChecksums}) {
    auto mapped = MappedCatalogEntry::Open(path, tier);
    ASSERT_FALSE(mapped.ok()) << error << " " << CatalogVerifyName(tier);
    EXPECT_EQ(mapped.status().code(), StatusCode::kIOError);
    EXPECT_EQ(mapped.status().message(), error) << CatalogVerifyName(tier);
  }
}

TEST(SumTablesCatalogTest, Section5Or6IsRefusedAtEveryTier) {
  const Sections sections = GoldenSections();
  // The control: the golden's own sections, reassembled, are the golden.
  ASSERT_EQ(AssembleV2(sections), ReadGolden("catalog_v2_version6.stats"));
  const std::string path = TempPath("section56.stats");
  for (const std::vector<uint32_t>& extra :
       {std::vector<uint32_t>{5}, std::vector<uint32_t>{6},
        std::vector<uint32_t>{5, 6}}) {
    Sections forged = sections;
    // The id alone is refused, before any payload byte is read.
    for (uint32_t id : extra) forged.emplace_back(id, std::string(64, 'x'));
    ASSERT_TRUE(WriteFileBytes(path, AssembleV2(forged)).ok());
    ExpectRefusedAtEveryTier(
        path, "binary catalog: unknown section id " + std::to_string(extra[0]));
  }
  std::filesystem::remove(path);
}

TEST(SumTablesCatalogTest, HistogramPayloadOfOtherLayoutIsRefusedAtEveryTier) {
  // One more 64-byte row after sum: the version-6 layout has no room for
  // it, whatever the row holds.
  Sections sections = GoldenSections();
  sections[3].second += std::string(64, '\0');
  const std::string path = TempPath("extra_row.stats");
  ASSERT_TRUE(WriteFileBytes(path, AssembleV2(sections)).ok());
  ExpectRefusedAtEveryTier(
      path, "section histogram: payload is " +
                std::to_string(sections[3].second.size()) +
                " bytes but the layout for beta=6 needs " +
                std::to_string(binfmt::HistogramLayout(6).payload_bytes));
  std::filesystem::remove(path);
}

TEST(SumTablesCatalogTest, PageAlignedSectionsServeAsPackedOnesDo) {
  // Readers ask for 64-byte aligned, ascending extents, not for packing:
  // the golden's sections each on a 4096-byte page load at every tier and
  // serve what the golden does.
  const std::string golden = ReadGolden("catalog_v2_version6.stats");
  const std::string path = TempPath("paged.stats");
  ASSERT_TRUE(WriteFileBytes(path, AssembleV2(GoldenSections(), 4096)).ok());
  auto want = DecodeCatalog(golden);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  auto copied = LoadPathHistogram(path);
  ASSERT_TRUE(copied.ok()) << copied.status().ToString();
  const PathSpace& space = want->estimator.ordering().space();
  space.ForEach([&](const LabelPath& p) {
    ASSERT_EQ(copied->estimator.Estimate(p), want->estimator.Estimate(p));
  });
  for (CatalogVerify tier :
       {CatalogVerify::kTrusted, CatalogVerify::kChecksums}) {
    auto mapped = MappedCatalogEntry::Open(path, tier);
    ASSERT_TRUE(mapped.ok())
        << CatalogVerifyName(tier) << ": " << mapped.status().ToString();
    EXPECT_EQ((*mapped)->mapped_bytes(), 4 * 4096 + 176u);
    RankScratch scratch;
    space.ForEach([&](const LabelPath& p) {
      ASSERT_EQ((*mapped)->estimator().Estimate(p, scratch),
                want->estimator.Estimate(p))
          << p.ToIdString();
    });
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace pathest
