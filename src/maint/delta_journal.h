// pathest: the crash-safe edge-delta journal — the write-ahead log of the
// online maintenance subsystem (maint/online_maintenance.h).
//
// An `update` is acknowledged to the client only after its record is
// appended AND fsynced here (util/safe_io.h DurableAppendFile), so an
// acknowledged delta survives any crash; on restart the daemon replays the
// journal over the base graph and rebuilds statistics incrementally
// (maint/incremental.h). The journal-then-snapshot shape follows the
// ytsaurus hydra changelog and couchbase-lite-core storage idiom:
// checksummed frames, idempotent replay, periodic compaction into a fresh
// base snapshot.
//
// File layout (all integers little-endian):
//
//   header   8 bytes: 0x89 'P' 'E' 'J' '1' 0x0A 0x00 0x00
//   frames, back to back:
//     u32 payload_length        in [1, kMaxJournalPayload]
//     u32 masked CRC32C         Crc32cMask(Crc32c(payload)) — masked like
//                               the catalog sections so a journal embedded
//                               in other checksummed data stays detectable
//     payload:
//       u8  kind               DeltaRecord::Kind
//       kAddEdge / kRemoveEdge:            u32 src, u32 dst, u32 label
//       kEpochBarrier / kCompactionMarker: u64 epoch
//
// Recovery contract (the changelog torn-tail rule):
//
//   * A bad frame with NO valid frame after it is a TORN TAIL — the
//     expected artifact of a crash mid-append. The scan returns every
//     record before it and RecoverDeltaJournal amputates the tail with a
//     durable truncate; nothing acknowledged is lost (acknowledgement
//     happens after fsync, and fsynced frames precede the tear).
//
//   * A bad frame with ANY structurally-valid frame after it is MID-FILE
//     corruption: truncating at the bad frame would drop the acknowledged
//     records behind it. That is a hard IOError. The caller salvages the
//     valid records BEFORE the bad frame (SalvageDeltaJournalPrefix),
//     replays those and nothing after them — a frame past the damage may
//     depend on the lost one, so replaying it could build a state that
//     never existed — and quarantines the journal (renames it aside).
//
// Replay is idempotent: the graph has set semantics (duplicate edges
// dedup at build), so adding a present edge or removing an absent one is a
// no-op, and replaying records that a compaction already folded into the
// base converges to the same state. This is what makes the compaction
// sequence crash-safe with no cross-file transaction (see
// maint/online_maintenance.h).

#ifndef PATHEST_MAINT_DELTA_JOURNAL_H_
#define PATHEST_MAINT_DELTA_JOURNAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/safe_io.h"
#include "util/status.h"

namespace pathest {
namespace maint {

/// \brief Hard cap on a frame's payload length. A length field above this
/// is corruption by definition — the validation that keeps a forged length
/// from driving a huge allocation or a bogus skip.
inline constexpr size_t kMaxJournalPayload = 64;

/// \brief The journal file header.
inline constexpr char kJournalMagic[8] = {'\x89', 'P',    'E',    'J',
                                          '1',    '\x0A', '\x00', '\x00'};

/// \brief One journaled event.
struct DeltaRecord {
  enum class Kind : uint8_t {
    kAddEdge = 1,
    kRemoveEdge = 2,
    /// Marks the end of one applied refresh batch (observability only;
    /// replay semantics do not depend on barriers).
    kEpochBarrier = 3,
    /// First record of a freshly-reset journal: everything before `epoch`
    /// is folded into the base snapshot.
    kCompactionMarker = 4,
  };

  Kind kind = Kind::kAddEdge;
  VertexId src = 0;
  VertexId dst = 0;
  LabelId label = 0;
  uint64_t epoch = 0;

  static DeltaRecord AddEdge(VertexId src, VertexId dst, LabelId label) {
    return DeltaRecord{Kind::kAddEdge, src, dst, label, 0};
  }
  static DeltaRecord RemoveEdge(VertexId src, VertexId dst, LabelId label) {
    return DeltaRecord{Kind::kRemoveEdge, src, dst, label, 0};
  }
  static DeltaRecord Barrier(uint64_t epoch) {
    return DeltaRecord{Kind::kEpochBarrier, 0, 0, 0, epoch};
  }
  static DeltaRecord Compaction(uint64_t epoch) {
    return DeltaRecord{Kind::kCompactionMarker, 0, 0, 0, epoch};
  }

  bool is_edge() const {
    return kind == Kind::kAddEdge || kind == Kind::kRemoveEdge;
  }
  bool operator==(const DeltaRecord&) const = default;
};

/// \brief Serializes one frame (length + masked CRC + payload) onto `out`.
/// Exposed for the fault-injection suite, which forges frames byte by
/// byte; production code goes through DeltaJournalWriter.
void AppendJournalFrame(std::string* out, const DeltaRecord& rec);

/// \brief Append-side handle. Every Append is frame + fsync: when it
/// returns OK the record is durable and may be acknowledged.
///
/// Precondition: an existing file must have been through
/// RecoverDeltaJournal (torn tail amputated) — appending after a tear
/// would strand the new frames behind garbage and turn a recoverable tail
/// into hard mid-file corruption. The daemon recovers before opening.
class DeltaJournalWriter {
 public:
  /// \brief Opens `path` for appending, writing + syncing the header if
  /// the file is new or empty; validates the header of an existing file.
  Status Open(const std::string& path);

  /// \brief Appends one record and fsyncs. OK == durable.
  Status Append(const DeltaRecord& rec);

  /// \brief Appends a batch under ONE fsync (amortized group commit).
  Status AppendBatch(const std::vector<DeltaRecord>& recs);

  /// \brief Closes the handle (no sync; everything acknowledged already
  /// was). Idempotent.
  void Close() { file_.Close(); }

  bool is_open() const { return file_.is_open(); }
  /// \brief Current end-of-file offset (header included).
  uint64_t offset() const { return file_.offset(); }

 private:
  DurableAppendFile file_;
};

/// \brief Outcome of a journal scan.
struct JournalScanResult {
  /// Every valid record, in append order (barriers and markers included).
  std::vector<DeltaRecord> records;
  /// File offset just past the last valid frame (== header size for an
  /// empty journal). A torn tail begins here.
  uint64_t last_good_offset = 0;
  /// Total file size at scan time.
  uint64_t file_bytes = 0;
  /// True when bytes past last_good_offset were a torn tail (no valid
  /// frame among them).
  bool torn_tail = false;
  /// Number of torn bytes (file_bytes - last_good_offset).
  uint64_t tail_bytes = 0;
};

/// \brief Scans `path` without modifying it. NotFound when the file does
/// not exist; IOError on a bad header or mid-file corruption (see the
/// recovery contract above); a torn tail is OK with torn_tail set.
Result<JournalScanResult> ScanDeltaJournal(const std::string& path);

/// \brief The acknowledged prefix of a journal ScanDeltaJournal rejects
/// (mid-file corruption, an unparseable payload, a bad header): every
/// valid record before the first bad frame and none after it.
/// last_good_offset is that frame's offset and tail_bytes the bytes from
/// it to the end of the file — what a quarantine loses. Does not modify
/// the file; fails only when it cannot be read.
Result<JournalScanResult> SalvageDeltaJournalPrefix(const std::string& path);

/// \brief Scan + amputation: like ScanDeltaJournal, but a torn tail is
/// durably truncated away (truncate + fsync) so subsequent appends land on
/// a clean frame boundary. Idempotent — a crash mid-truncate just re-runs.
Result<JournalScanResult> RecoverDeltaJournal(const std::string& path);

/// \brief Atomically replaces the journal at `path` with a fresh one
/// holding only the header and one compaction marker for `epoch` — the
/// last step of a compaction (safe_io atomic tmp + fsync + rename). A
/// crash BEFORE this step leaves already-folded records in the journal;
/// replaying them over the new base is idempotent, so recovery converges.
Status ResetDeltaJournal(const std::string& path, uint64_t epoch);

}  // namespace maint
}  // namespace pathest

#endif  // PATHEST_MAINT_DELTA_JOURNAL_H_
