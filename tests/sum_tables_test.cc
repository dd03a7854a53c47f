// The shared stage-2/3 tables of the sum-based ordering (SumTables in
// ordering/sum_based.h) and the catalog rule that follows from them:
// binary catalog v2 versions 4 and 5 store no tables, and the tables that
// versions 2 and 3 persisted as sections 5 and 6 are checksummed from
// kChecksums up but never read.

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

std::string GoldenPath(const std::string& name) {
  return std::string(PATHEST_SOURCE_DIR) + "/tests/golden/" + name;
}

std::string ReadGolden(const std::string& name) {
  std::ifstream in(GoldenPath(name), std::ios::binary);
  PATHEST_CHECK(in.is_open(), "golden fixture missing");
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("pathest_sum_tables_" + name))
      .string();
}

// The sections of `image` (a committed golden) whose ids are in `ids`, as
// (id, payload) pairs.
using Sections = std::vector<std::pair<uint32_t, std::string>>;
Sections SectionsOf(const std::string& image,
                    std::initializer_list<uint32_t> ids) {
  auto table = ParseBinarySectionTable(image);
  PATHEST_CHECK(table.ok(), "golden section table unreadable");
  Sections sections;
  for (uint32_t id : ids) {
    for (const BinarySectionInfo& s : *table) {
      if (s.id == id) {
        sections.emplace_back(id, image.substr(s.offset, s.length));
      }
    }
  }
  PATHEST_CHECK(sections.size() == ids.size(), "golden section missing");
  return sections;
}

// A signed v2 image of header version `version` holding `sections` (id,
// payload), packed on 64-byte boundaries the way the writer packs them.
std::string AssembleV2(uint32_t version, const Sections& sections) {
  const uint64_t table_bytes = sections.size() * binfmt::kSectionEntryBytes;
  std::string table, body;
  uint64_t end = binfmt::kHeaderBytes + table_bytes;
  for (const auto& [id, payload] : sections) {
    const uint64_t offset = binfmt::AlignUp(end, binfmt::kArrayAlignBytes);
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

TEST(SumTablesCatalogTest, Version4OrLaterWithSection5Or6IsRefusedAtEveryTier) {
  const std::string v3 = ReadGolden("catalog_v2_version3.stats");
  const std::string path = TempPath("v456.stats");
  for (uint32_t version : {binfmt::kVersionV2MeanRows,
                           binfmt::kVersionV2SumsqRow, binfmt::kVersionV2}) {
    const std::string golden =
        ReadGolden("catalog_v2_version" + std::to_string(version) + ".stats");
    const Sections sections = SectionsOf(golden, {1, 2, 3, 4});
    // The control: the golden's own sections, reassembled, are the golden.
    ASSERT_EQ(AssembleV2(version, sections), golden);
    const std::string not_part =
        ": not part of a version-" + std::to_string(version) + " file";
    for (const auto& [extra, first] :
         {std::pair{SectionsOf(v3, {5}), "composition"},
          std::pair{SectionsOf(v3, {6}), "sum-index"},
          std::pair{SectionsOf(v3, {5, 6}), "composition"}}) {
      Sections forged = sections;
      forged.insert(forged.end(), extra.begin(), extra.end());
      ASSERT_TRUE(WriteFileBytes(path, AssembleV2(version, forged)).ok());
      ExpectRefusedAtEveryTier(path,
                               "section " + std::string(first) + not_part);
    }
  }
  std::filesystem::remove(path);
}

TEST(SumTablesCatalogTest, NextHeaderOverOlderRowsIsRefusedAtEveryTier) {
  // Each golden relabelled as the next version: the version-4 payload
  // still carries the mean and prefix rows, which version 5's layout has
  // no room for, and the version-5 payload its sumsq row, which version
  // 6's has none for.
  for (uint32_t version :
       {binfmt::kVersionV2MeanRows, binfmt::kVersionV2SumsqRow}) {
    const Sections sections = SectionsOf(
        ReadGolden("catalog_v2_version" + std::to_string(version) + ".stats"),
        {1, 2, 3, 4});
    const std::string path = TempPath("relabelled.stats");
    ASSERT_TRUE(WriteFileBytes(path, AssembleV2(version + 1, sections)).ok());
    ExpectRefusedAtEveryTier(
        path,
        "section histogram: payload is " +
            std::to_string(sections[3].second.size()) +
            " bytes but the layout for beta=6 needs " +
            std::to_string(
                binfmt::HistogramLayout(6, version + 1).payload_bytes));
    std::filesystem::remove(path);
  }
}

TEST(SumTablesCatalogTest, Version3WithCorruptSection6IsRefusedFromChecksums) {
  const std::string v3 = ReadGolden("catalog_v2_version3.stats");
  auto sections = ParseBinarySectionTable(v3);
  ASSERT_TRUE(sections.ok());
  ASSERT_EQ(sections->size(), 6u);
  const BinarySectionInfo& index = (*sections)[5];
  ASSERT_EQ(index.id, binfmt::kSectionSumIndex);
  std::string corrupt = v3;
  ASSERT_TRUE(FlipBit(&corrupt, index.offset + index.length / 2, 0).ok());
  const std::string path = TempPath("v3.stats");
  ASSERT_TRUE(WriteFileBytes(path, corrupt).ok());

  const std::string error = "section sum-index: checksum mismatch over " +
                            std::to_string(index.length) + " bytes";
  auto copied = LoadPathHistogram(path);
  ASSERT_FALSE(copied.ok());
  EXPECT_EQ(copied.status().message(), error);
  auto mapped = MappedCatalogEntry::Open(path, CatalogVerify::kChecksums);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kIOError);
  EXPECT_EQ(mapped.status().message(), error);

  // kTrusted checks no bulk CRC, and no reader reads section 6, so the
  // trusted entry serves exactly what the intact file does.
  auto trusted = MappedCatalogEntry::Open(path, CatalogVerify::kTrusted);
  ASSERT_TRUE(trusted.ok()) << trusted.status().ToString();
  auto intact = DecodeCatalog(v3);
  ASSERT_TRUE(intact.ok()) << intact.status().ToString();
  const PathSpace& space = intact->estimator.ordering().space();
  RankScratch scratch;
  space.ForEach([&](const LabelPath& p) {
    ASSERT_EQ((*trusted)->estimator().Estimate(p, scratch),
              intact->estimator.Estimate(p))
        << p.ToIdString();
  });
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace pathest
