// The shared stage-2/3 tables of the sum-based ordering (SumTables in
// ordering/sum_based.h) and the catalog rule that follows from them:
// binary catalog v2 version 4 stores no tables, and the tables that
// versions 2 and 3 persisted as sections 5 and 6 are checksummed from
// kChecksums up but never read.

#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <latch>
#include <memory>
#include <string>
#include <thread>
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

// The version-3 golden relabelled as version 4 with only the section-table
// entries whose ids are in `ids` kept (the payloads stay where they are),
// header and table re-signed so the forgery reaches the section rules.
// Versions 3 and 4 lay sections 1-4 out identically.
std::string ForgeVersion4(std::initializer_list<uint32_t> ids) {
  const std::string v3 = ReadGolden("catalog_v2_version3.stats");
  uint32_t count;
  std::memcpy(&count, v3.data() + 12, 4);
  std::string table;
  for (uint32_t i = 0; i < count; ++i) {
    const size_t at = binfmt::kHeaderBytes + i * binfmt::kSectionEntryBytes;
    uint32_t id;
    std::memcpy(&id, v3.data() + at, 4);
    for (uint32_t keep : ids) {
      if (keep == id) table.append(v3, at, binfmt::kSectionEntryBytes);
    }
  }
  std::string forged = v3;
  std::memset(forged.data() + binfmt::kHeaderBytes, 0,
              count * binfmt::kSectionEntryBytes);
  forged.replace(binfmt::kHeaderBytes, table.size(), table);
  const uint32_t version = binfmt::kVersionV2;
  const uint32_t kept =
      static_cast<uint32_t>(table.size() / binfmt::kSectionEntryBytes);
  std::memcpy(forged.data() + 8, &version, 4);
  std::memcpy(forged.data() + 12, &kept, 4);
  const uint32_t header_crc = Crc32c(forged.data(), binfmt::kHeaderBytes - 8);
  const uint32_t table_crc = Crc32c(table.data(), table.size());
  std::memcpy(forged.data() + 24, &header_crc, 4);
  std::memcpy(forged.data() + 28, &table_crc, 4);
  return forged;
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("pathest_sum_tables_" + name))
      .string();
}

TEST(SumTablesCatalogTest, Version4WithSection5Or6IsRefusedAtEveryTier) {
  // The control: the same bytes with sections 1-4 only are a valid
  // version-4 file at every tier.
  const std::string path = TempPath("v4.stats");
  ASSERT_TRUE(WriteFileBytes(path, ForgeVersion4({1, 2, 3, 4})).ok());
  ASSERT_TRUE(LoadPathHistogram(path).ok());
  for (CatalogVerify tier : {CatalogVerify::kTrusted,
                             CatalogVerify::kChecksums, CatalogVerify::kFull}) {
    auto mapped = MappedCatalogEntry::Open(path, tier);
    EXPECT_TRUE(mapped.ok()) << CatalogVerifyName(tier) << ": "
                             << mapped.status().ToString();
  }

  struct Forgery {
    std::string forged;
    std::string error;
  };
  const Forgery forgeries[] = {
      {ForgeVersion4({1, 2, 3, 4, 5}),
       "section composition: not part of a version-4 file"},
      {ForgeVersion4({1, 2, 3, 4, 6}),
       "section sum-index: not part of a version-4 file"},
      {ForgeVersion4({1, 2, 3, 4, 5, 6}),
       "section composition: not part of a version-4 file"},
  };
  for (const Forgery& f : forgeries) {
    ASSERT_TRUE(WriteFileBytes(path, f.forged).ok());
    auto copied = LoadPathHistogram(path);
    ASSERT_FALSE(copied.ok()) << f.error;
    EXPECT_EQ(copied.status().code(), StatusCode::kIOError);
    EXPECT_EQ(copied.status().message(), f.error);
    for (CatalogVerify tier : {CatalogVerify::kTrusted,
                               CatalogVerify::kChecksums,
                               CatalogVerify::kFull}) {
      auto mapped = MappedCatalogEntry::Open(path, tier);
      ASSERT_FALSE(mapped.ok()) << f.error << " " << CatalogVerifyName(tier);
      EXPECT_EQ(mapped.status().code(), StatusCode::kIOError);
      EXPECT_EQ(mapped.status().message(), f.error)
          << CatalogVerifyName(tier);
    }
  }
  std::filesystem::remove(path);
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
  for (CatalogVerify tier : {CatalogVerify::kChecksums, CatalogVerify::kFull}) {
    auto mapped = MappedCatalogEntry::Open(path, tier);
    ASSERT_FALSE(mapped.ok()) << CatalogVerifyName(tier);
    EXPECT_EQ(mapped.status().code(), StatusCode::kIOError);
    EXPECT_EQ(mapped.status().message(), error) << CatalogVerifyName(tier);
  }

  // kTrusted checks no bulk CRC, and no reader reads section 6, so the
  // trusted entry serves exactly what the intact file does.
  auto trusted = MappedCatalogEntry::Open(path, CatalogVerify::kTrusted);
  ASSERT_TRUE(trusted.ok()) << trusted.status().ToString();
  auto intact = ReadPathHistogramBinaryV2(v3);
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
