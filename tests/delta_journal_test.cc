// The crash matrix of the edge-delta journal (maint/delta_journal.h): a
// VALID journal is subjected to every corruption class the format claims
// to survive — truncation at every byte, bit flips and forged lengths in
// tail vs mid-file position, and scripted crashes at every write/sync
// stage of append, recovery, and reset. The contract under test:
//
//   * torn tails (no valid frame after the damage) scan OK and recovery
//     amputates them durably — nothing ACKNOWLEDGED is ever lost;
//   * mid-file corruption (a valid frame after the damage) is a hard
//     IOError, never a silent truncation of acknowledged records, and
//     the salvageable prefix is exactly the records before the damage;
//   * a crashed append leaves exactly a torn-tail artifact, and reopen +
//     re-append of the unacknowledged batch converges (idempotent replay);
//   * a crashed reset (compaction's last step) leaves the previous journal
//     byte-identical with no temp debris.

#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "maint/delta_journal.h"
#include "util/crc32c.h"
#include "util/fault_injection.h"
#include "util/safe_io.h"

namespace pathest {
namespace maint {
namespace {

constexpr size_t kHeader = sizeof(kJournalMagic);

class DeltaJournalTest : public ::testing::Test {
 protected:
  DeltaJournalTest() {
    dir_ = std::filesystem::temp_directory_path() /
           ("pathest_journal_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "deltas.journal").string();
  }

  ~DeltaJournalTest() override { std::filesystem::remove_all(dir_); }

  // A representative record mix: both edge kinds, a barrier, a marker.
  static std::vector<DeltaRecord> SampleRecords() {
    return {DeltaRecord::Compaction(3),
            DeltaRecord::AddEdge(1, 2, 0),
            DeltaRecord::AddEdge(0xFFFFFFFFu, 7, 2),
            DeltaRecord::RemoveEdge(1, 2, 0),
            DeltaRecord::Barrier(4),
            DeltaRecord::AddEdge(5, 6, 1)};
  }

  // The byte image of a journal holding `recs`, built frame by frame —
  // the same bytes the writer produces, but assembled in memory so the
  // corruption sweeps can slice it freely.
  static std::string ImageOf(const std::vector<DeltaRecord>& recs) {
    std::string bytes(kJournalMagic, kHeader);
    for (const DeltaRecord& rec : recs) AppendJournalFrame(&bytes, rec);
    return bytes;
  }

  // Frame start offsets of `recs` in ImageOf(recs), plus the end offset.
  static std::vector<size_t> FrameBoundaries(
      const std::vector<DeltaRecord>& recs) {
    std::vector<size_t> at{kHeader};
    std::string bytes(kJournalMagic, kHeader);
    for (const DeltaRecord& rec : recs) {
      AppendJournalFrame(&bytes, rec);
      at.push_back(bytes.size());
    }
    return at;
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(DeltaJournalTest, WriterRoundTripsAllRecordKinds) {
  const std::vector<DeltaRecord> recs = SampleRecords();
  DeltaJournalWriter writer;
  ASSERT_TRUE(writer.Open(path_).ok());
  for (const DeltaRecord& rec : recs) {
    ASSERT_TRUE(writer.Append(rec).ok());
  }
  writer.Close();

  auto scan = ScanDeltaJournal(path_);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan->records, recs);
  EXPECT_FALSE(scan->torn_tail);
  EXPECT_EQ(scan->last_good_offset, scan->file_bytes);
  // And the writer's bytes are exactly the reference image.
  auto bytes = ReadFileBytes(path_);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, ImageOf(recs));
}

TEST_F(DeltaJournalTest, AppendBatchIsOneDurableGroupCommit) {
  const std::vector<DeltaRecord> recs = SampleRecords();
  DeltaJournalWriter writer;
  ASSERT_TRUE(writer.Open(path_).ok());
  ASSERT_TRUE(writer.AppendBatch(recs).ok());
  EXPECT_EQ(writer.offset(), ImageOf(recs).size());
  writer.Close();
  auto scan = ScanDeltaJournal(path_);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records, recs);
}

TEST_F(DeltaJournalTest, MissingFileIsNotFoundAndNonJournalIsIOError) {
  EXPECT_EQ(ScanDeltaJournal(path_).status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(WriteFileBytes(path_, "definitely not a journal").ok());
  EXPECT_EQ(ScanDeltaJournal(path_).status().code(), StatusCode::kIOError);
  DeltaJournalWriter writer;
  EXPECT_EQ(writer.Open(path_).code(), StatusCode::kIOError);
}

TEST_F(DeltaJournalTest, HeaderOnlyAndEmptyFilesScanClean) {
  // A fresh writer leaves header-only: zero records, nothing torn.
  {
    DeltaJournalWriter writer;
    ASSERT_TRUE(writer.Open(path_).ok());
    writer.Close();
  }
  auto scan = ScanDeltaJournal(path_);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->records.empty());
  EXPECT_EQ(scan->last_good_offset, kHeader);
  EXPECT_FALSE(scan->torn_tail);

  // A zero-byte file is a crash at creation before any byte landed.
  ASSERT_TRUE(WriteFileBytes(path_, "").ok());
  scan = ScanDeltaJournal(path_);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->records.empty());
  EXPECT_FALSE(scan->torn_tail);
  EXPECT_EQ(scan->last_good_offset, 0u);
}

TEST_F(DeltaJournalTest, EveryTruncationPointIsATornTailNeverAHardError) {
  // Truncation models a crash mid-append: recovery must classify EVERY cut
  // as a torn tail (or clean boundary), return exactly the records whose
  // frames lie fully before the cut, and amputate so appends can resume.
  const std::vector<DeltaRecord> recs = SampleRecords();
  const std::string image = ImageOf(recs);
  const std::vector<size_t> bounds = FrameBoundaries(recs);

  for (size_t cut = 0; cut < image.size(); ++cut) {
    ASSERT_TRUE(WriteFileBytes(path_, image.substr(0, cut)).ok());
    auto scan = ScanDeltaJournal(path_);
    ASSERT_TRUE(scan.ok()) << "cut=" << cut << ": "
                           << scan.status().ToString();

    size_t whole_frames = 0;
    size_t good_offset = cut >= kHeader ? kHeader : 0;
    for (size_t i = 1; i < bounds.size(); ++i) {
      if (bounds[i] <= cut) {
        good_offset = bounds[i];
        ++whole_frames;
      }
    }

    ASSERT_EQ(scan->records.size(), whole_frames) << "cut=" << cut;
    for (size_t i = 0; i < whole_frames; ++i) {
      EXPECT_EQ(scan->records[i], recs[i]) << "cut=" << cut;
    }
    EXPECT_EQ(scan->last_good_offset, good_offset) << "cut=" << cut;
    EXPECT_EQ(scan->torn_tail, cut != good_offset) << "cut=" << cut;
    EXPECT_EQ(scan->tail_bytes, cut - good_offset) << "cut=" << cut;

    // Recovery amputates; a reopened writer then appends cleanly and the
    // re-journaled suffix restores the full record stream (idempotent
    // replay: re-appending records the tear swallowed is always safe).
    auto recovered = RecoverDeltaJournal(path_);
    ASSERT_TRUE(recovered.ok()) << "cut=" << cut;
    EXPECT_EQ(recovered->file_bytes, good_offset == 0 ? 0 : good_offset);
    DeltaJournalWriter writer;
    ASSERT_TRUE(writer.Open(path_).ok()) << "cut=" << cut;
    std::vector<DeltaRecord> tail(recs.begin() + whole_frames, recs.end());
    ASSERT_TRUE(writer.AppendBatch(tail).ok()) << "cut=" << cut;
    writer.Close();
    auto healed = ScanDeltaJournal(path_);
    ASSERT_TRUE(healed.ok()) << "cut=" << cut;
    EXPECT_EQ(healed->records, recs) << "cut=" << cut;
  }
}

TEST_F(DeltaJournalTest, DamageInTheLastFrameIsATornTail) {
  const std::vector<DeltaRecord> recs = SampleRecords();
  const std::string image = ImageOf(recs);
  const std::vector<size_t> bounds = FrameBoundaries(recs);
  const size_t last_start = bounds[bounds.size() - 2];

  // Bit flips across the final frame: length, CRC, payload bytes.
  for (size_t at = last_start; at < image.size(); ++at) {
    std::string corrupt = image;
    ASSERT_TRUE(FlipBit(&corrupt, at, static_cast<int>(at % 8)).ok());
    ASSERT_TRUE(WriteFileBytes(path_, corrupt).ok());
    auto scan = ScanDeltaJournal(path_);
    ASSERT_TRUE(scan.ok()) << "flip at " << at << ": "
                           << scan.status().ToString();
    EXPECT_TRUE(scan->torn_tail) << "flip at " << at;
    EXPECT_EQ(scan->last_good_offset, last_start) << "flip at " << at;
    EXPECT_EQ(scan->records.size(), recs.size() - 1) << "flip at " << at;
  }

  // A forged huge length in the last frame: out-of-range by validation,
  // not by allocation.
  std::string corrupt = image;
  corrupt[last_start] = '\xFF';
  corrupt[last_start + 1] = '\xFF';
  corrupt[last_start + 2] = '\xFF';
  corrupt[last_start + 3] = '\xFF';
  ASSERT_TRUE(WriteFileBytes(path_, corrupt).ok());
  auto scan = ScanDeltaJournal(path_);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->torn_tail);
  EXPECT_EQ(scan->last_good_offset, last_start);
}

TEST_F(DeltaJournalTest, DamageBeforeAValidFrameIsMidFileCorruption) {
  // The same damage classes applied to the FIRST frame — with five valid
  // frames behind it — must be hard errors: truncating there would drop
  // acknowledged records.
  const std::vector<DeltaRecord> recs = SampleRecords();
  const std::string image = ImageOf(recs);
  const std::vector<size_t> bounds = FrameBoundaries(recs);

  for (size_t at = bounds[0]; at < bounds[1]; ++at) {
    std::string corrupt = image;
    ASSERT_TRUE(FlipBit(&corrupt, at, static_cast<int>(at % 8)).ok());
    ASSERT_TRUE(WriteFileBytes(path_, corrupt).ok());
    auto scan = ScanDeltaJournal(path_);
    ASSERT_FALSE(scan.ok()) << "flip at " << at << " scanned clean";
    EXPECT_EQ(scan.status().code(), StatusCode::kIOError);
  }

  // Forged length mid-file.
  std::string corrupt = image;
  corrupt[bounds[0]] = '\xFF';
  corrupt[bounds[0] + 1] = '\xFF';
  ASSERT_TRUE(WriteFileBytes(path_, corrupt).ok());
  EXPECT_EQ(ScanDeltaJournal(path_).status().code(), StatusCode::kIOError);

  // Header damage is always fatal — the file is not a journal.
  corrupt = image;
  ASSERT_TRUE(FlipBit(&corrupt, 2, 5).ok());
  ASSERT_TRUE(WriteFileBytes(path_, corrupt).ok());
  EXPECT_EQ(ScanDeltaJournal(path_).status().code(), StatusCode::kIOError);
}

TEST_F(DeltaJournalTest, SalvageKeepsOnlyTheRecordsBeforeTheFirstBadFrame) {
  // Damage each frame that has valid frames behind it: the salvaged
  // prefix is exactly the records before it — never one after it — and
  // the file is left as it was.
  const std::vector<DeltaRecord> recs = SampleRecords();
  const std::string image = ImageOf(recs);
  const std::vector<size_t> bounds = FrameBoundaries(recs);
  for (size_t f = 0; f + 1 < recs.size(); ++f) {
    std::string corrupt = image;
    ASSERT_TRUE(FlipBit(&corrupt, bounds[f] + 4, 1).ok());  // CRC field
    ASSERT_TRUE(WriteFileBytes(path_, corrupt).ok());
    ASSERT_FALSE(ScanDeltaJournal(path_).ok()) << "frame " << f;
    auto salvage = SalvageDeltaJournalPrefix(path_);
    ASSERT_TRUE(salvage.ok()) << salvage.status().ToString();
    EXPECT_EQ(salvage->records,
              std::vector<DeltaRecord>(recs.begin(), recs.begin() + f));
    EXPECT_EQ(salvage->last_good_offset, bounds[f]);
    EXPECT_EQ(salvage->tail_bytes, image.size() - bounds[f]);
    auto after = ReadFileBytes(path_);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(*after, corrupt);
  }

  // A damaged header salvages nothing.
  std::string corrupt = image;
  ASSERT_TRUE(FlipBit(&corrupt, 2, 5).ok());
  ASSERT_TRUE(WriteFileBytes(path_, corrupt).ok());
  auto salvage = SalvageDeltaJournalPrefix(path_);
  ASSERT_TRUE(salvage.ok());
  EXPECT_TRUE(salvage->records.empty());
  EXPECT_EQ(salvage->tail_bytes, image.size());
}

TEST_F(DeltaJournalTest, CrcValidFrameWithGarbagePayloadIsHardError) {
  // A frame whose checksum PASSES but whose payload is unparseable (bad
  // kind byte, wrong field width) is corruption the CRC cannot see —
  // forged deliberately here, with the CRC recomputed over the garbage.
  std::string bytes(kJournalMagic, kHeader);
  std::string payload;
  payload.push_back('\x7E');  // unknown kind
  AppendU32(&payload, 1);
  AppendU32(&payload, 2);
  AppendU32(&payload, 0);
  AppendU32(&bytes, static_cast<uint32_t>(payload.size()));
  AppendU32(&bytes, Crc32cMask(Crc32c(payload.data(), payload.size())));
  bytes.append(payload);
  ASSERT_TRUE(WriteFileBytes(path_, bytes).ok());
  auto scan = ScanDeltaJournal(path_);
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kIOError);

  // Same for a wrong-width edge payload (valid kind, truncated fields).
  bytes.assign(kJournalMagic, kHeader);
  payload.clear();
  payload.push_back(static_cast<char>(DeltaRecord::Kind::kAddEdge));
  AppendU32(&payload, 1);  // src only — dst and label missing
  AppendU32(&bytes, static_cast<uint32_t>(payload.size()));
  AppendU32(&bytes, Crc32cMask(Crc32c(payload.data(), payload.size())));
  bytes.append(payload);
  ASSERT_TRUE(WriteFileBytes(path_, bytes).ok());
  EXPECT_EQ(ScanDeltaJournal(path_).status().code(), StatusCode::kIOError);
}

TEST_F(DeltaJournalTest, CrashedAppendLeavesRecoverableTornTailAtEveryByte) {
  // The append crash matrix: establish three acknowledged records, then
  // kill a batch append at every write offset and at fsync. After each
  // crash: the acknowledged records must scan out intact, recovery must
  // succeed, and re-appending the batch (what a restarted daemon does with
  // an unacknowledged client retry) must converge to the full stream.
  const std::vector<DeltaRecord> acked = {DeltaRecord::AddEdge(1, 2, 0),
                                          DeltaRecord::AddEdge(2, 3, 1),
                                          DeltaRecord::Barrier(1)};
  const std::vector<DeltaRecord> batch = {DeltaRecord::AddEdge(3, 4, 0),
                                          DeltaRecord::RemoveEdge(1, 2, 0),
                                          DeltaRecord::Barrier(2)};
  std::string batch_bytes;
  for (const DeltaRecord& rec : batch) {
    AppendJournalFrame(&batch_bytes, rec);
  }

  for (size_t fail_at = 0; fail_at <= batch_bytes.size(); ++fail_at) {
    const bool fail_sync_only = fail_at == batch_bytes.size();
    std::filesystem::remove(path_);
    {
      DeltaJournalWriter writer;
      ASSERT_TRUE(writer.Open(path_).ok());
      ASSERT_TRUE(writer.AppendBatch(acked).ok());
      writer.Close();
    }
    {
      // Reopen (recovery contract) so the injector's byte counter starts
      // at the batch's first byte.
      DeltaJournalWriter writer;
      ASSERT_TRUE(writer.Open(path_).ok());
      ScriptedWriteFaults faults;
      if (fail_sync_only) {
        faults.fail_sync = true;
      } else {
        faults.fail_write_at_byte = fail_at;
      }
      ScriptedWriteFaults::Install install(&faults);
      Status st = writer.AppendBatch(batch);
      ASSERT_FALSE(st.ok()) << "fail_at=" << fail_at;
      EXPECT_EQ(st.code(), StatusCode::kIOError);
      writer.Close();
    }

    // The crash artifact: acknowledged records intact, tail possibly torn.
    auto recovered = RecoverDeltaJournal(path_);
    ASSERT_TRUE(recovered.ok()) << "fail_at=" << fail_at << ": "
                                << recovered.status().ToString();
    ASSERT_GE(recovered->records.size(), acked.size());
    for (size_t i = 0; i < acked.size(); ++i) {
      EXPECT_EQ(recovered->records[i], acked[i]) << "fail_at=" << fail_at;
    }
    EXPECT_FALSE(recovered->torn_tail);  // amputated already

    // Idempotent replay: re-append the whole batch, whether or not a
    // prefix of it survived the crash. The stream converges.
    {
      DeltaJournalWriter writer;
      ASSERT_TRUE(writer.Open(path_).ok()) << "fail_at=" << fail_at;
      ASSERT_TRUE(writer.AppendBatch(batch).ok()) << "fail_at=" << fail_at;
      writer.Close();
    }
    auto healed = ScanDeltaJournal(path_);
    ASSERT_TRUE(healed.ok()) << "fail_at=" << fail_at;
    ASSERT_GE(healed->records.size(), acked.size() + batch.size());
    // The last |batch| records are the re-appended batch; everything
    // before is acked plus (on a post-write sync failure) a stale copy —
    // which EdgeDeltasFromRecords replay handles by set semantics.
    const size_t n = healed->records.size();
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(healed->records[n - batch.size() + i], batch[i])
          << "fail_at=" << fail_at;
    }
  }
}

TEST_F(DeltaJournalTest, CrashedHeaderCreationRecovers) {
  // Kill the very first header write: the artifact is a magic PREFIX,
  // which scans as a torn tail at offset zero, recovers to an empty file,
  // and opens cleanly afterward.
  for (size_t fail_at : {size_t{0}, size_t{3}, size_t{7}}) {
    std::filesystem::remove(path_);
    {
      ScriptedWriteFaults faults;
      faults.fail_write_at_byte = fail_at;
      ScriptedWriteFaults::Install install(&faults);
      DeltaJournalWriter writer;
      EXPECT_FALSE(writer.Open(path_).ok()) << "fail_at=" << fail_at;
    }
    auto recovered = RecoverDeltaJournal(path_);
    ASSERT_TRUE(recovered.ok()) << "fail_at=" << fail_at;
    EXPECT_TRUE(recovered->records.empty());
    DeltaJournalWriter writer;
    ASSERT_TRUE(writer.Open(path_).ok()) << "fail_at=" << fail_at;
    ASSERT_TRUE(writer.Append(DeltaRecord::AddEdge(1, 2, 0)).ok());
    writer.Close();
    auto scan = ScanDeltaJournal(path_);
    ASSERT_TRUE(scan.ok());
    EXPECT_EQ(scan->records.size(), 1u);
  }
}

TEST_F(DeltaJournalTest, CrashedResetLeavesPreviousJournalIntact) {
  // ResetDeltaJournal is the last step of a compaction; killing it at any
  // stage must leave the old journal byte-identical (replaying the folded
  // records over the new base is idempotent) and drop no temp debris.
  const std::vector<DeltaRecord> recs = SampleRecords();
  {
    DeltaJournalWriter writer;
    ASSERT_TRUE(writer.Open(path_).ok());
    ASSERT_TRUE(writer.AppendBatch(recs).ok());
    writer.Close();
  }
  auto before = ReadFileBytes(path_);
  ASSERT_TRUE(before.ok());

  auto stage = [&](ScriptedWriteFaults faults, const char* what) {
    ScriptedWriteFaults::Install install(&faults);
    Status st = ResetDeltaJournal(path_, 9);
    EXPECT_FALSE(st.ok()) << what;
  };
  {
    ScriptedWriteFaults f;
    f.fail_write_at_byte = 4;
    stage(f, "short write");
  }
  {
    ScriptedWriteFaults f;
    f.fail_sync = true;
    stage(f, "fsync");
  }
  {
    ScriptedWriteFaults f;
    f.fail_rename = true;
    stage(f, "rename");
  }

  auto after = ReadFileBytes(path_);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *before);
  size_t files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir_)) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 1u);

  // Without the injector the reset goes through: header + one marker.
  ASSERT_TRUE(ResetDeltaJournal(path_, 9).ok());
  auto scan = ScanDeltaJournal(path_);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->records[0], DeltaRecord::Compaction(9));
}

}  // namespace
}  // namespace maint
}  // namespace pathest
