#include "maint/delta_journal.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstring>

#include "util/crc32c.h"

namespace pathest {
namespace maint {

namespace {

constexpr size_t kHeaderBytes = sizeof(kJournalMagic);
constexpr size_t kFrameOverhead = 8;  // u32 length + u32 masked CRC

void AppendPayload(std::string* out, const DeltaRecord& rec) {
  out->push_back(static_cast<char>(rec.kind));
  switch (rec.kind) {
    case DeltaRecord::Kind::kAddEdge:
    case DeltaRecord::Kind::kRemoveEdge:
      AppendU32(out, rec.src);
      AppendU32(out, rec.dst);
      AppendU32(out, rec.label);
      break;
    case DeltaRecord::Kind::kEpochBarrier:
    case DeltaRecord::Kind::kCompactionMarker:
      AppendU64(out, rec.epoch);
      break;
  }
}

// Parses one CRC-valid payload. A failure here is NOT a torn tail — the
// frame's checksum passed, so the content itself is wrong (unknown kind,
// wrong field width): hard corruption either way.
Status ParsePayload(std::string_view payload, DeltaRecord* out) {
  BoundedReader reader(payload);
  uint8_t kind_byte = 0;
  PATHEST_RETURN_NOT_OK(reader.ReadBytes(&kind_byte, 1, "record kind"));
  DeltaRecord rec;
  switch (kind_byte) {
    case static_cast<uint8_t>(DeltaRecord::Kind::kAddEdge):
    case static_cast<uint8_t>(DeltaRecord::Kind::kRemoveEdge):
      rec.kind = static_cast<DeltaRecord::Kind>(kind_byte);
      PATHEST_RETURN_NOT_OK(reader.ReadU32(&rec.src, "edge src"));
      PATHEST_RETURN_NOT_OK(reader.ReadU32(&rec.dst, "edge dst"));
      PATHEST_RETURN_NOT_OK(reader.ReadU32(&rec.label, "edge label"));
      break;
    case static_cast<uint8_t>(DeltaRecord::Kind::kEpochBarrier):
    case static_cast<uint8_t>(DeltaRecord::Kind::kCompactionMarker):
      rec.kind = static_cast<DeltaRecord::Kind>(kind_byte);
      PATHEST_RETURN_NOT_OK(reader.ReadU64(&rec.epoch, "record epoch"));
      break;
    default:
      return Status::IOError("unknown journal record kind " +
                             std::to_string(kind_byte));
  }
  if (!reader.AtEnd()) {
    return Status::IOError("journal record has trailing payload bytes");
  }
  *out = rec;
  return Status::OK();
}

uint32_t ReadLE32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;  // build targets are little-endian (same contract as safe_io)
}

// True when a structurally-valid frame starts at `offset` (length in
// range, fits in the file, checksum matches). Used to distinguish a torn
// tail (no valid frame past the bad one) from mid-file corruption.
bool ValidFrameAt(std::string_view bytes, size_t offset) {
  if (bytes.size() - offset < kFrameOverhead) return false;
  const uint32_t len = ReadLE32(bytes.data() + offset);
  if (len < 1 || len > kMaxJournalPayload) return false;
  if (bytes.size() - offset - kFrameOverhead < len) return false;
  const uint32_t masked = ReadLE32(bytes.data() + offset + 4);
  const uint32_t crc = Crc32c(bytes.data() + offset + kFrameOverhead, len);
  return Crc32cUnmask(masked) == crc;
}

// On error `out` still holds the valid prefix: the records before the
// first bad frame, with last_good_offset at that frame.
Status ScanBytes(std::string_view bytes, const std::string& path,
                 JournalScanResult* out) {
  out->file_bytes = bytes.size();
  // Header. A file shorter than the header that is a PREFIX of the magic
  // is a crash during creation (torn tail at offset 0); anything else that
  // mismatches is not a journal at all.
  if (bytes.size() < kHeaderBytes) {
    if (std::memcmp(bytes.data(), kJournalMagic, bytes.size()) != 0) {
      return Status::IOError("'" + path + "' is not an edge-delta journal");
    }
    out->last_good_offset = 0;
    out->torn_tail = bytes.size() > 0;
    out->tail_bytes = bytes.size();
    return Status::OK();
  }
  if (std::memcmp(bytes.data(), kJournalMagic, kHeaderBytes) != 0) {
    return Status::IOError("'" + path + "' is not an edge-delta journal");
  }

  size_t offset = kHeaderBytes;
  while (offset < bytes.size()) {
    if (!ValidFrameAt(bytes, offset)) {
      // First bad frame. If ANY later offset begins a valid frame, the
      // damage is mid-file: truncating here would drop the acknowledged
      // records behind it — hard error. Otherwise it is the torn tail of
      // a crashed append.
      for (size_t probe = offset + 1;
           probe + kFrameOverhead <= bytes.size(); ++probe) {
        if (ValidFrameAt(bytes, probe)) {
          out->last_good_offset = offset;
          return Status::IOError(
              "'" + path + "': corrupt frame at offset " +
              std::to_string(offset) +
              " followed by a valid frame — mid-file corruption, not a "
              "torn tail");
        }
      }
      out->torn_tail = true;
      out->tail_bytes = bytes.size() - offset;
      out->last_good_offset = offset;
      return Status::OK();
    }
    const uint32_t len = ReadLE32(bytes.data() + offset);
    DeltaRecord rec;
    Status st = ParsePayload(
        std::string_view(bytes.data() + offset + kFrameOverhead, len), &rec);
    if (!st.ok()) {
      out->last_good_offset = offset;
      return Status::IOError("'" + path + "': frame at offset " +
                             std::to_string(offset) + ": " + st.message());
    }
    out->records.push_back(rec);
    offset += kFrameOverhead + len;
  }
  out->last_good_offset = offset;
  return Status::OK();
}

}  // namespace

void AppendJournalFrame(std::string* out, const DeltaRecord& rec) {
  std::string payload;
  AppendPayload(&payload, rec);
  AppendU32(out, static_cast<uint32_t>(payload.size()));
  AppendU32(out, Crc32cMask(Crc32c(payload.data(), payload.size())));
  out->append(payload);
}

Status DeltaJournalWriter::Open(const std::string& path) {
  PATHEST_RETURN_NOT_OK(file_.Open(path));
  if (file_.offset() == 0) {
    PATHEST_RETURN_NOT_OK(
        file_.Append(std::string_view(kJournalMagic, sizeof(kJournalMagic))));
    PATHEST_RETURN_NOT_OK(file_.Sync());
    return Status::OK();
  }
  // Existing file: validate the header (the record frames were validated
  // by the recovery scan this handle's contract requires).
  std::string head;
  Status st = ReadFileToString(path, &head);
  if (!st.ok()) {
    file_.Close();
    return st;
  }
  if (head.size() < kHeaderBytes ||
      std::memcmp(head.data(), kJournalMagic, kHeaderBytes) != 0) {
    file_.Close();
    return Status::IOError("'" + path + "' is not an edge-delta journal");
  }
  return Status::OK();
}

Status DeltaJournalWriter::Append(const DeltaRecord& rec) {
  std::string frame;
  AppendJournalFrame(&frame, rec);
  PATHEST_RETURN_NOT_OK(file_.Append(frame));
  return file_.Sync();
}

Status DeltaJournalWriter::AppendBatch(const std::vector<DeltaRecord>& recs) {
  if (recs.empty()) return Status::OK();
  std::string frames;
  for (const DeltaRecord& rec : recs) AppendJournalFrame(&frames, rec);
  PATHEST_RETURN_NOT_OK(file_.Append(frames));
  return file_.Sync();
}

Result<JournalScanResult> ScanDeltaJournal(const std::string& path) {
  struct stat sb;
  if (::stat(path.c_str(), &sb) != 0) {
    if (errno == ENOENT) {
      return Status::NotFound("no journal at '" + path + "'");
    }
    return Status::IOError("cannot stat '" + path +
                           "': " + std::strerror(errno));
  }
  std::string bytes;
  PATHEST_RETURN_NOT_OK(ReadFileToString(path, &bytes));
  JournalScanResult result;
  PATHEST_RETURN_NOT_OK(ScanBytes(bytes, path, &result));
  return result;
}

Result<JournalScanResult> SalvageDeltaJournalPrefix(const std::string& path) {
  std::string bytes;
  PATHEST_RETURN_NOT_OK(ReadFileToString(path, &bytes));
  JournalScanResult result;
  // Whatever its verdict, the scan stops at the first bad frame, so what
  // it parsed is exactly the prefix.
  (void)ScanBytes(bytes, path, &result);
  result.tail_bytes = result.file_bytes - result.last_good_offset;
  return result;
}

Result<JournalScanResult> RecoverDeltaJournal(const std::string& path) {
  auto scan = ScanDeltaJournal(path);
  if (!scan.ok()) return scan.status();
  if (scan->torn_tail) {
    PATHEST_RETURN_NOT_OK(TruncateFileDurable(path, scan->last_good_offset));
    scan->file_bytes = scan->last_good_offset;
  }
  return scan;
}

Status ResetDeltaJournal(const std::string& path, uint64_t epoch) {
  std::string bytes(kJournalMagic, sizeof(kJournalMagic));
  AppendJournalFrame(&bytes, DeltaRecord::Compaction(epoch));
  return AtomicWriteFile(path, bytes);
}

}  // namespace maint
}  // namespace pathest
