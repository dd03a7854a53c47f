#include "core/serialize.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cctype>
#include <cmath>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>

#include "core/serialize_internal.h"
#include "ordering/factory.h"
#include "ordering/sum_based.h"
#include "path/path_space.h"
#include "util/combinatorics.h"
#include "util/crc32c.h"
#include "util/safe_io.h"

namespace pathest {

namespace {

// The reader also takes v1, whose sums of squares it checks and drops.
constexpr const char* kTextMagic = "pathest-histogram v2";
constexpr const char* kTextMagicV1 = "pathest-histogram v1";

// Caps shared by all formats: a label dictionary or path length outside
// these is a corrupt or forged file, not a real catalog.
constexpr uint64_t kMaxLabels = 4096;
constexpr uint64_t kMaxLabelNameBytes = 4096;

// The sum-based family carries a composition section in v1 (stage-2
// table); sum-L2 never reaches serialization (IsSerializableOrdering
// rejects it).
bool IsSumFamilyOrdering(const std::string& name) {
  return name.rfind("sum-", 0) == 0;
}

// The stage-2 table a sum-family ordering holds; null for any other.
const CompositionTable* CompositionsOf(const Ordering& ordering) {
  const auto* sum_based = dynamic_cast<const SumBasedOrdering*>(&ordering);
  return sum_based == nullptr ? nullptr : &sum_based->tables().compositions;
}

// Values in v1 section 5: for each m in [1, k], sums m through m·|L|.
uint64_t CompositionValueCount(const CompositionTable& table) {
  uint64_t count = 0;
  for (uint64_t m = 1; m <= table.max_len(); ++m) {
    count += m * table.num_labels() - m + 1;
  }
  return count;
}

// The v2 bulk rows are written and mapped as raw little-endian u64/f64
// images; both directions assume the host matches.
static_assert(std::endian::native == std::endian::little,
              "binary catalog v2 bulk rows assume a little-endian host");

// Zero-pads `out` up to offset `off`.
void PadTo(std::string* out, uint64_t off) {
  PATHEST_CHECK(out->size() <= off, "writer overshot a layout offset");
  out->resize(off, '\0');
}

// Raw little-endian value append (the static_assert above licenses it).
template <typename T>
void AppendRaw(std::string* out, const T& value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

// The four constants that tell the v1 and v2 containers apart. The frame
// parser and the assembler are one code path for both.
struct FrameSpec {
  const unsigned char* magic;
  uint32_t min_version;  // oldest header version readers accept
  uint32_t version;      // what the writer emits; the newest accepted
  uint32_t max_section_id;
  uint64_t align;  // every section offset is a multiple of this
};

constexpr FrameSpec kFrameV1{binfmt::kMagic, binfmt::kVersion,
                             binfmt::kVersion, binfmt::kSectionComposition,
                             1};
constexpr FrameSpec kFrameV2{binfmt::kMagicV2, binfmt::kVersionV2Eytzinger,
                             binfmt::kVersionV2, binfmt::kSectionSumIndex,
                             binfmt::kArrayAlignBytes};

// Section payloads in id order, as the writers hand them to the assembler.
using SectionPayloads = std::vector<std::pair<uint32_t, std::string>>;

// Writes header, table, then each payload at the first multiple of
// spec.align at or after the previous end; offsets are absolute. v2's gaps
// (< 64 bytes each) are zero padding outside every CRC; v1's alignment of
// 1 puts the payloads back to back.
void AssembleBinary(const FrameSpec& spec, const SectionPayloads& sections,
                    std::string* out) {
  using namespace binfmt;  // NOLINT — layout constants
  const uint64_t table_bytes = sections.size() * kSectionEntryBytes;
  std::vector<uint64_t> offsets;
  offsets.reserve(sections.size());
  uint64_t total_size = kHeaderBytes + table_bytes;
  for (const auto& [id, payload] : sections) {
    offsets.push_back(AlignUp(total_size, spec.align));
    total_size = offsets.back() + payload.size();
  }

  out->clear();
  out->reserve(total_size);
  out->append(reinterpret_cast<const char*>(spec.magic), kMagicBytes);
  AppendU32(out, spec.version);
  AppendU32(out, static_cast<uint32_t>(sections.size()));
  AppendU64(out, total_size);
  AppendU32(out, Crc32c(out->data(), out->size()));
  AppendU32(out, 0);  // the table CRC, signed once the table is written
  for (size_t i = 0; i < sections.size(); ++i) {
    const auto& [id, payload] = sections[i];
    AppendU32(out, id);
    AppendU32(out, Crc32c(payload.data(), payload.size()));
    AppendU64(out, offsets[i]);
    AppendU64(out, payload.size());
  }
  const uint32_t table_crc = Crc32c(out->data() + kHeaderBytes, table_bytes);
  std::memcpy(out->data() + kHeaderBytes - 4, &table_crc, 4);
  for (size_t i = 0; i < sections.size(); ++i) {
    PadTo(out, offsets[i]);
    out->append(sections[i].second);
  }
}

}  // namespace

const char* CatalogFormatName(CatalogFormat format) {
  switch (format) {
    case CatalogFormat::kText:
      return "text";
    case CatalogFormat::kBinary:
      return "binary";
    case CatalogFormat::kBinaryV2:
      return "binary-v2";
  }
  return "?";
}

Result<CatalogFormat> ParseCatalogFormat(const std::string& name) {
  if (name == "text") return CatalogFormat::kText;
  if (name == "binary") return CatalogFormat::kBinary;
  if (name == "binary-v2") return CatalogFormat::kBinaryV2;
  return Status::InvalidArgument("unknown catalog format '" + name +
                                 "' (expected text|binary|binary-v2)");
}

const char* CatalogVerifyName(CatalogVerify verify) {
  switch (verify) {
    case CatalogVerify::kTrusted:
      return "trusted";
    case CatalogVerify::kChecksums:
      return "checksums";
  }
  return "?";
}

namespace binfmt {

const char* SectionName(uint32_t id) {
  switch (id) {
    case kSectionOrdering:
      return "ordering";
    case kSectionLabels:
      return "labels";
    case kSectionCardinalities:
      return "cardinalities";
    case kSectionHistogram:
      return "histogram";
    case kSectionComposition:
      return "composition";
    case kSectionSumIndex:
      return "sum-index";
  }
  return "?";
}

HistogramLayoutV2 HistogramLayout(uint64_t beta, uint32_t version) {
  PATHEST_CHECK(version >= kVersionV2Eytzinger && version <= kVersionV2,
                "no histogram layout for this v2 version");
  uint64_t end = 16;  // u64 beta, u64 domain_size
  // Places a row of `bytes` at the next 64-byte boundary: its offset.
  auto row = [&end](uint64_t bytes) {
    end = AlignUp(end, kArrayAlignBytes) + bytes;
    return end - bytes;
  };
  HistogramLayoutV2 l;
  l.begin_off = row(8 * beta);
  if (version == kVersionV2Eytzinger) row(8 * beta);  // end
  l.sum_off = row(8 * beta);
  if (version < kVersionV2) row(8 * beta);  // sumsq
  if (version < kVersionV2SumsqRow) {
    row(8 * beta);        // mean
    row(8 * (beta + 1));  // prefix
  }
  if (version == kVersionV2Eytzinger) {
    row(8 * (beta + 1));  // Eytzinger begins
    row(4 * (beta + 1));  // their slot -> rank map
  }
  l.payload_bytes = end;
  return l;
}

}  // namespace binfmt

bool IsSerializableOrdering(const std::string& ordering_name) {
  for (const char* name :
       {"num-alph", "num-card", "lex-alph", "lex-card", "sum-based",
        "sum-card", "sum-alph", "gray-alph", "gray-card"}) {
    if (ordering_name == name) return true;
  }
  return false;
}

// ----------------------------------------------------------------- writers

namespace {

std::string EncodeText(const PathHistogram& estimator,
                       const LabelDictionary& labels,
                       const std::vector<uint64_t>& cardinalities) {
  std::ostringstream out;
  out << kTextMagic << "\n";
  out << "ordering " << estimator.ordering().name() << "\n";
  out << "type " << HistogramTypeName(estimator.histogram_type()) << "\n";
  out << "k " << estimator.ordering().space().k() << "\n";
  out << "labels " << labels.size();
  for (const std::string& name : labels.names()) out << ' ' << name;
  out << "\n";
  out << "cardinalities";
  for (uint64_t f : cardinalities) out << ' ' << f;
  out << "\n";
  const Histogram& h = estimator.histogram();
  out << "buckets " << h.num_buckets() << "\n";
  // Hex double encoding is lossless and locale-independent.
  for (size_t b = 0; b < h.num_buckets(); ++b) {
    out << h.begins()[b] << ' ' << h.BucketEnd(b) << ' ' << std::hexfloat
        << h.sums()[b] << std::defaultfloat << "\n";
  }
  return out.str();
}

// Sections 1-3, byte-identical in v1 and v2.
SectionPayloads MetadataSections(const PathHistogram& estimator,
                                 const LabelDictionary& labels,
                                 const std::vector<uint64_t>& cardinalities) {
  std::string ordering, names, cards;
  AppendLengthPrefixedString(&ordering, estimator.ordering().name());
  AppendLengthPrefixedString(&ordering,
                             HistogramTypeName(estimator.histogram_type()));
  AppendU32(&ordering,
            static_cast<uint32_t>(estimator.ordering().space().k()));
  AppendU32(&ordering, 0);
  AppendU32(&names, static_cast<uint32_t>(labels.size()));
  for (const std::string& name : labels.names()) {
    AppendLengthPrefixedString(&names, name);
  }
  AppendU32(&cards, static_cast<uint32_t>(cardinalities.size()));
  AppendU32(&cards, 0);
  for (uint64_t f : cardinalities) AppendU64(&cards, f);

  SectionPayloads sections;
  sections.reserve(binfmt::kSectionComposition);
  sections.emplace_back(binfmt::kSectionOrdering, std::move(ordering));
  sections.emplace_back(binfmt::kSectionLabels, std::move(names));
  sections.emplace_back(binfmt::kSectionCardinalities, std::move(cards));
  return sections;
}

// v1 sections 4 and 5: the four structure-of-arrays bucket rows (the
// frozen layout's sumsq row all 0.0: a Histogram keeps no such row) and,
// for the sum family, the ordering's stage-2 CompositionTable rows (the v1
// reader checks them against the loaded ordering's table).
void AppendV1Sections(const PathHistogram& estimator,
                      SectionPayloads* sections) {
  const Histogram& h = estimator.histogram();
  const size_t beta = h.num_buckets();
  std::string hist;
  hist.reserve(8 + beta * 32);
  AppendU64(&hist, beta);
  for (uint64_t begin : h.begins()) AppendU64(&hist, begin);
  for (size_t b = 0; b < beta; ++b) AppendU64(&hist, h.BucketEnd(b));
  for (double sum : h.sums()) AppendDouble(&hist, sum);
  for (size_t b = 0; b < beta; ++b) AppendDouble(&hist, 0.0);
  sections->emplace_back(binfmt::kSectionHistogram, std::move(hist));

  const CompositionTable* table = CompositionsOf(estimator.ordering());
  if (table == nullptr) return;
  std::string comp;
  AppendU32(&comp, static_cast<uint32_t>(table->num_labels()));
  AppendU32(&comp, static_cast<uint32_t>(table->max_len()));
  AppendU64(&comp, CompositionValueCount(*table));
  for (uint64_t m = 1; m <= table->max_len(); ++m) {
    for (uint64_t sum = m; sum <= m * table->num_labels(); ++sum) {
      AppendU64(&comp, table->Count(sum, m));
    }
  }
  sections->emplace_back(binfmt::kSectionComposition, std::move(comp));
}

// v2 section 4: the begin and sum rows, each at its layout offset so a
// mapped reader points spans at them. Bucket ends are not written: readers
// derive them from the begins.
void AppendV2Histogram(const PathHistogram& estimator,
                       SectionPayloads* sections) {
  const Histogram& h = estimator.histogram();
  const binfmt::HistogramLayoutV2 hl =
      binfmt::HistogramLayout(h.num_buckets());
  std::string hist;
  hist.reserve(hl.payload_bytes);
  AppendU64(&hist, h.num_buckets());
  AppendU64(&hist, h.domain_size());
  PadTo(&hist, hl.begin_off);
  for (uint64_t begin : h.begins()) AppendRaw(&hist, begin);
  PadTo(&hist, hl.sum_off);
  for (double sum : h.sums()) AppendRaw(&hist, sum);
  PATHEST_CHECK(hist.size() == hl.payload_bytes,
                "v2 histogram payload does not match its layout");
  sections->emplace_back(binfmt::kSectionHistogram, std::move(hist));
}

}  // namespace

Status EncodeCatalog(const PathHistogram& estimator,
                     const LabelDictionary& labels,
                     const std::vector<uint64_t>& cardinalities,
                     CatalogFormat format, std::string* out) {
  const std::string& ordering_name = estimator.ordering().name();
  if (!IsSerializableOrdering(ordering_name)) {
    return Status::InvalidArgument(
        "ordering '" + ordering_name +
        "' materializes O(|L_k|) state and cannot be serialized compactly");
  }
  if (labels.size() != cardinalities.size()) {
    return Status::InvalidArgument("cardinalities size mismatch");
  }
  if (format == CatalogFormat::kText) {
    *out = EncodeText(estimator, labels, cardinalities);
    return Status::OK();
  }
  SectionPayloads sections =
      MetadataSections(estimator, labels, cardinalities);
  const bool v1 = format == CatalogFormat::kBinary;
  if (v1) {
    AppendV1Sections(estimator, &sections);
  } else {
    AppendV2Histogram(estimator, &sections);
  }
  AssembleBinary(v1 ? kFrameV1 : kFrameV2, sections, out);
  return Status::OK();
}

Status SavePathHistogram(const PathHistogram& estimator, const Graph& graph,
                         const std::string& path, CatalogFormat format) {
  std::vector<uint64_t> cards(graph.num_labels());
  for (LabelId l = 0; l < graph.num_labels(); ++l) {
    cards[l] = graph.LabelCardinality(l);
  }
  std::string bytes;
  PATHEST_RETURN_NOT_OK(
      EncodeCatalog(estimator, graph.labels(), cards, format, &bytes));
  // Atomic publication: a crashed or failed save never leaves a partial
  // catalog at `path`, and any previous file there survives byte-identical.
  return AtomicWriteFile(path, bytes);
}

Status SaveLoadedPathHistogram(const LoadedPathHistogram& loaded,
                               const std::string& path, CatalogFormat format) {
  std::string bytes;
  PATHEST_RETURN_NOT_OK(EncodeCatalog(loaded.estimator, loaded.labels,
                                      loaded.label_cardinalities, format,
                                      &bytes));
  return AtomicWriteFile(path, bytes);
}

// ----------------------------------------------------------- format sniff

CatalogFormat SniffCatalogFormat(std::string_view bytes, uint32_t* version) {
  CatalogFormat format = CatalogFormat::kText;
  if (bytes.size() >= binfmt::kMagicBytes) {
    if (std::memcmp(bytes.data(), binfmt::kMagicV2, binfmt::kMagicBytes) ==
        0) {
      format = CatalogFormat::kBinaryV2;
    } else if (std::memcmp(bytes.data(), binfmt::kMagic,
                           binfmt::kMagicBytes) == 0) {
      format = CatalogFormat::kBinary;
    }
  }
  if (version != nullptr) {
    *version = 0;
    if (format != CatalogFormat::kText &&
        bytes.size() >= binfmt::kMagicBytes + 4) {
      std::memcpy(version, bytes.data() + binfmt::kMagicBytes, 4);
    }
  }
  return format;
}

Result<CatalogFormat> SniffCatalogFile(const std::string& path,
                                      uint32_t* version) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (!std::filesystem::exists(path)) {
      return Status::NotFound("no such file: " + path);
    }
    return Status::IOError("cannot open " + path);
  }
  // Magic, then the u32 version field.
  char head[binfmt::kMagicBytes + 4];
  in.read(head, sizeof head);
  return SniffCatalogFormat(
      std::string_view(head, static_cast<size_t>(in.gcount())), version);
}

Result<bool> SniffFileIsBinaryV2(const std::string& path) {
  auto format = SniffCatalogFile(path);
  if (!format.ok()) return format.status();
  return *format == CatalogFormat::kBinaryV2;
}

// ------------------------------------------------ shared reader machinery

namespace {

using internal::CatalogMetadata;

Status SectionError(uint32_t id, const std::string& detail) {
  return Status::IOError(std::string("section ") + binfmt::SectionName(id) +
                         ": " + detail);
}

struct SectionEntry {
  uint32_t id = 0;
  uint32_t crc = 0;
  uint64_t offset = 0;
  uint64_t length = 0;
};

// A binary catalog's authenticated header and section table.
struct Frame {
  std::string_view bytes;
  uint32_t version = 0;
  // Indexed by section id; an absent section's entry has id 0.
  std::array<SectionEntry, binfmt::kSectionSumIndex + 1> sections{};

  const SectionEntry* Find(uint32_t id) const {
    return id < sections.size() && sections[id].id == id ? &sections[id]
                                                         : nullptr;
  }

  // The payload of `e`, its CRC verified before the caller interprets a
  // byte of it.
  Status Open(const SectionEntry& e, std::string_view* payload) const {
    *payload = bytes.substr(e.offset, e.length);
    if (Crc32c(payload->data(), payload->size()) != e.crc) {
      return SectionError(e.id, "checksum mismatch over " +
                                    std::to_string(e.length) + " bytes");
    }
    return Status::OK();
  }
};

// The one parse of the binary container, v1 and v2 alike: every header
// check happens before the field it gates is used; section offsets and
// lengths are bounds-checked before any access; sections 1-3 are
// CRC-checked, then fully parsed into `meta`. Section 4 and later are the
// caller's.
Status ParseFrame(std::string_view bytes, const FrameSpec& spec, Frame* frame,
                  CatalogMetadata* meta) {
  using namespace binfmt;  // NOLINT — layout constants
  // ---- header.
  if (bytes.size() < kHeaderBytes) {
    return Status::IOError("binary catalog: truncated header (" +
                           std::to_string(bytes.size()) + " bytes)");
  }
  if (std::memcmp(bytes.data(), spec.magic, kMagicBytes) != 0) {
    return Status::IOError("binary catalog: bad magic");
  }
  BoundedReader header(bytes.data(), kHeaderBytes);
  PATHEST_RETURN_NOT_OK(header.Skip(kMagicBytes, "magic"));
  uint32_t version = 0, section_count = 0, header_crc = 0, table_crc = 0;
  uint64_t file_size = 0;
  PATHEST_RETURN_NOT_OK(header.ReadU32(&version, "version"));
  PATHEST_RETURN_NOT_OK(header.ReadU32(&section_count, "section count"));
  PATHEST_RETURN_NOT_OK(header.ReadU64(&file_size, "file size"));
  PATHEST_RETURN_NOT_OK(header.ReadU32(&header_crc, "header crc"));
  PATHEST_RETURN_NOT_OK(header.ReadU32(&table_crc, "table crc"));
  if (Crc32c(bytes.data(), kHeaderBytes - 8) != header_crc) {
    return Status::IOError("binary catalog: header checksum mismatch");
  }
  // Post-CRC: the header fields are authentic; now validate them.
  if (version < spec.min_version || version > spec.version) {
    std::string known = std::to_string(spec.min_version);
    if (spec.min_version != spec.version) {
      known += " to " + std::to_string(spec.version);
    }
    return Status::IOError("binary catalog: unsupported format version " +
                           std::to_string(version) + " (reader knows " +
                           known + ")");
  }
  if (file_size != bytes.size()) {
    return Status::IOError("binary catalog: file is " +
                           std::to_string(bytes.size()) +
                           " bytes but the header expects " +
                           std::to_string(file_size) + " (truncated copy?)");
  }
  if (section_count == 0 || section_count > kMaxSections) {
    return Status::IOError("binary catalog: implausible section count " +
                           std::to_string(section_count));
  }
  const uint64_t table_bytes =
      static_cast<uint64_t>(section_count) * kSectionEntryBytes;
  if (kHeaderBytes + table_bytes > bytes.size()) {
    return Status::IOError("binary catalog: truncated section table");
  }
  if (Crc32c(bytes.data() + kHeaderBytes, table_bytes) != table_crc) {
    return Status::IOError("binary catalog: section table checksum mismatch");
  }
  frame->bytes = bytes;
  frame->version = version;

  // ---- section table: known ids in ascending order, extents inside the
  // file, aligned, ascending and non-overlapping.
  BoundedReader table(bytes.data() + kHeaderBytes, table_bytes);
  uint32_t prev_id = 0;
  uint64_t prev_end = kHeaderBytes + table_bytes;
  for (uint32_t i = 0; i < section_count; ++i) {
    SectionEntry e;
    PATHEST_RETURN_NOT_OK(table.ReadU32(&e.id, "section id"));
    PATHEST_RETURN_NOT_OK(table.ReadU32(&e.crc, "section crc"));
    PATHEST_RETURN_NOT_OK(table.ReadU64(&e.offset, "section offset"));
    PATHEST_RETURN_NOT_OK(table.ReadU64(&e.length, "section length"));
    if (e.id <= prev_id) {
      return Status::IOError(
          "binary catalog: section ids not strictly ascending");
    }
    prev_id = e.id;
    if (e.id > spec.max_section_id) {
      return Status::IOError("binary catalog: unknown section id " +
                             std::to_string(e.id));
    }
    if (e.offset < kHeaderBytes + table_bytes || e.offset > bytes.size() ||
        e.length > bytes.size() - e.offset) {
      return SectionError(e.id, "extent [" + std::to_string(e.offset) +
                                    ", +" + std::to_string(e.length) +
                                    ") outside the file");
    }
    if (e.offset % spec.align != 0) {
      return SectionError(e.id, "offset " + std::to_string(e.offset) +
                                    " is not " + std::to_string(spec.align) +
                                    "-byte aligned");
    }
    if (e.offset < prev_end) {
      return SectionError(e.id, "extent [" + std::to_string(e.offset) +
                                    ", +" + std::to_string(e.length) +
                                    ") overlaps the previous section, "
                                    "which ends at " +
                                    std::to_string(prev_end));
    }
    prev_end = e.offset + e.length;
    frame->sections[e.id] = e;
  }
  for (uint32_t id : {kSectionOrdering, kSectionLabels,
                      kSectionCardinalities, kSectionHistogram}) {
    if (frame->Find(id) == nullptr) {
      return SectionError(id, "required section missing");
    }
  }

  // ---- section 1: ordering identity.
  std::string_view payload;
  PATHEST_RETURN_NOT_OK(
      frame->Open(*frame->Find(kSectionOrdering), &payload));
  BoundedReader ord(payload);
  std::string type_name;
  uint32_t k32 = 0, reserved = 0;
  PATHEST_RETURN_NOT_OK(ord.ReadLengthPrefixedString(&meta->ordering_name, 64,
                                                     "ordering name"));
  PATHEST_RETURN_NOT_OK(
      ord.ReadLengthPrefixedString(&type_name, 64, "histogram type"));
  PATHEST_RETURN_NOT_OK(ord.ReadU32(&k32, "k"));
  PATHEST_RETURN_NOT_OK(ord.ReadU32(&reserved, "ordering reserved"));
  if (!ord.AtEnd()) return SectionError(kSectionOrdering, "trailing bytes");
  if (!IsSerializableOrdering(meta->ordering_name)) {
    return SectionError(kSectionOrdering,
                        "unknown serialized ordering: " + meta->ordering_name);
  }
  auto type = ParseHistogramType(type_name);
  if (!type.ok()) {
    return SectionError(kSectionOrdering, type.status().message());
  }
  meta->histogram_type = *type;
  meta->k = k32;
  if (meta->k < 1 || meta->k > kMaxPathLength) {
    return SectionError(kSectionOrdering, "bad k " + std::to_string(meta->k));
  }

  // ---- section 2: label dictionary.
  PATHEST_RETURN_NOT_OK(frame->Open(*frame->Find(kSectionLabels), &payload));
  BoundedReader lab(payload);
  uint32_t num_labels = 0;
  PATHEST_RETURN_NOT_OK(lab.ReadU32(&num_labels, "label count"));
  if (num_labels == 0 || num_labels > kMaxLabels) {
    return SectionError(kSectionLabels, "implausible label count " +
                                            std::to_string(num_labels));
  }
  if (Status shape = CheckOrderingShape(meta->ordering_name, num_labels,
                                        meta->k);
      !shape.ok()) {
    return SectionError(kSectionLabels, shape.message());
  }
  // Each label costs at least its 4-byte length prefix.
  PATHEST_RETURN_NOT_OK(lab.ValidateCount(num_labels, 4, "labels"));
  for (uint32_t i = 0; i < num_labels; ++i) {
    std::string name;
    PATHEST_RETURN_NOT_OK(
        lab.ReadLengthPrefixedString(&name, kMaxLabelNameBytes, "label name"));
    if (name.empty()) return SectionError(kSectionLabels, "empty label name");
    if (meta->labels.Intern(name) != i) {
      return SectionError(kSectionLabels, "duplicate label name: " + name);
    }
  }
  if (!lab.AtEnd()) return SectionError(kSectionLabels, "trailing bytes");

  // ---- section 3: cardinalities.
  PATHEST_RETURN_NOT_OK(
      frame->Open(*frame->Find(kSectionCardinalities), &payload));
  BoundedReader car(payload);
  uint32_t card_count = 0;
  PATHEST_RETURN_NOT_OK(car.ReadU32(&card_count, "cardinality count"));
  PATHEST_RETURN_NOT_OK(car.ReadU32(&reserved, "cardinalities reserved"));
  if (card_count != num_labels) {
    return SectionError(kSectionCardinalities,
                        "count " + std::to_string(card_count) +
                            " does not match " + std::to_string(num_labels) +
                            " labels");
  }
  PATHEST_RETURN_NOT_OK(car.ValidateCount(card_count, 8, "cardinalities"));
  meta->cards.reserve(card_count);
  for (uint32_t i = 0; i < card_count; ++i) {
    uint64_t f = 0;
    PATHEST_RETURN_NOT_OK(car.ReadU64(&f, "cardinality"));
    meta->cards.push_back(f);
  }
  if (!car.AtEnd()) {
    return SectionError(kSectionCardinalities, "trailing bytes");
  }
  return Status::OK();
}

// The bucket rows of a text or v1 catalog, at least one bucket each,
// checked in bucket order — contiguous from 0 (end[b] == begin[b + 1]) and
// non-empty, with finite non-negative sums and v1's sums of squares (empty
// for text v2) — then begin and sum owned by a Histogram over [0, end of
// the last bucket). A refusal is a typed IOError: v1 localizes it to
// section 4; the text format has no sections.
Result<Histogram> HistogramFromBucketRows(std::vector<uint64_t> begin,
                                          const std::vector<uint64_t>& end,
                                          std::vector<double> sum,
                                          const std::vector<double>& sumsq,
                                          bool in_section) {
  auto counts = [](double v) { return std::isfinite(v) && v >= 0.0; };
  auto refuse = [in_section](const char* why) {
    const std::string detail = std::string("invalid buckets: ") + why;
    return in_section ? SectionError(binfmt::kSectionHistogram, detail)
                      : Status::IOError(detail);
  };
  uint64_t expected_begin = 0;
  for (size_t b = 0; b < begin.size(); ++b) {
    if (begin[b] != expected_begin || end[b] <= begin[b]) {
      return refuse("buckets must be contiguous, non-empty, and start at 0");
    }
    // Frequencies are counts: NaN and +/-inf are as corrupt as a negative.
    if (!counts(sum[b]) || !(sumsq.empty() || counts(sumsq[b]))) {
      return refuse("bucket sums must be finite and non-negative");
    }
    expected_begin = end[b];
  }
  return Histogram::FromRows(end.back(), std::move(begin), std::move(sum));
}

// The tail of every copying reader: the ordering rebuilt from `meta`
// joined with `histogram` into an owned estimator. Moves the labels and
// cardinalities out of `meta`.
Result<LoadedPathHistogram> LoadedFrom(CatalogMetadata& meta,
                                       Histogram histogram) {
  auto ordering = MakeOrderingFromStats(meta.ordering_name, meta.labels,
                                        meta.cards, meta.k);
  if (!ordering.ok()) return ordering.status();
  auto estimator = PathHistogram::FromParts(
      std::move(*ordering), std::move(histogram), meta.histogram_type);
  if (!estimator.ok()) return estimator.status();
  return LoadedPathHistogram{std::move(meta.labels), std::move(meta.cards),
                             std::move(*estimator)};
}

// ------------------------------------------------------------- text reader

Result<LoadedPathHistogram> DecodeText(std::string_view content) {
  // The buffer is parsed with a cursor over the raw bytes: integers via
  // std::from_chars, doubles via strtod (hexfloat). The previous reader
  // paid an istringstream construction plus locale-aware operator>>
  // extraction per line, which dominated large-beta catalog loads (see the
  // timing note in serialize.h).
  const char* cur = content.data();
  const char* const end = content.data() + content.size();

  // The magic is a whole line, not a token (it contains a space).
  const char* nl = std::find(cur, end, '\n');
  const std::string_view magic(cur, static_cast<size_t>(nl - cur));
  const bool sumsq_column = magic == kTextMagicV1;
  if (!sumsq_column && magic != kTextMagic) {
    return Status::IOError("bad magic: expected '" + std::string(kTextMagic) +
                           "' or '" + kTextMagicV1 + "'");
  }
  cur = nl == end ? end : nl + 1;

  auto next_token = [&cur, end]() -> std::string_view {
    while (cur < end && std::isspace(static_cast<unsigned char>(*cur))) ++cur;
    const char* begin = cur;
    while (cur < end && !std::isspace(static_cast<unsigned char>(*cur))) ++cur;
    return {begin, static_cast<size_t>(cur - begin)};
  };
  auto expect_key = [&next_token](const char* key) -> Status {
    const std::string_view tok = next_token();
    if (tok.empty()) {
      return Status::IOError(std::string("truncated file before '") + key +
                             "'");
    }
    if (tok != key) {
      return Status::IOError("expected key '" + std::string(key) +
                             "', found '" + std::string(tok) + "'");
    }
    return Status::OK();
  };
  auto parse_u64 = [&next_token](uint64_t* out) -> bool {
    const std::string_view tok = next_token();
    if (tok.empty()) return false;
    const auto [ptr, ec] =
        std::from_chars(tok.data(), tok.data() + tok.size(), *out);
    return ec == std::errc() && ptr == tok.data() + tok.size();
  };
  // Hexfloat ("0x1.8p+4") parsing stays on strtod: std::from_chars's hex
  // format rejects the "0x" prefix the writer emits. strtod stops at the
  // whitespace that ends a token; a token that ends the buffer has nothing
  // after it to stop at, so it is parsed from a terminated copy.
  auto parse_double = [&next_token, end](double* out) -> bool {
    const std::string_view tok = next_token();
    if (tok.empty()) return false;
    const std::string last(tok.data() + tok.size() == end ? tok : "");
    const char* start = last.empty() ? tok.data() : last.c_str();
    char* parse_end = nullptr;
    *out = std::strtod(start, &parse_end);
    return parse_end == start + tok.size();
  };

  CatalogMetadata meta;
  PATHEST_RETURN_NOT_OK(expect_key("ordering"));
  meta.ordering_name = next_token();
  if (!IsSerializableOrdering(meta.ordering_name)) {
    return Status::IOError("unknown serialized ordering: " +
                           meta.ordering_name);
  }

  PATHEST_RETURN_NOT_OK(expect_key("type"));
  auto type = ParseHistogramType(std::string{next_token()});
  if (!type.ok()) return type.status();
  meta.histogram_type = *type;

  PATHEST_RETURN_NOT_OK(expect_key("k"));
  if (!parse_u64(&meta.k) || meta.k < 1 || meta.k > kMaxPathLength) {
    return Status::IOError("bad k");
  }

  PATHEST_RETURN_NOT_OK(expect_key("labels"));
  uint64_t num_labels = 0;
  if (!parse_u64(&num_labels) || num_labels == 0 || num_labels > kMaxLabels) {
    return Status::IOError("bad label count");
  }
  // A parsed count sizes allocations below, so it must be plausible
  // against the bytes that actually remain (each label name plus its
  // separator needs at least 2 bytes) — a forged huge count is an IOError
  // here, never an unbounded reserve.
  if (num_labels > static_cast<uint64_t>(end - cur) / 2) {
    return Status::IOError("implausible label count " +
                           std::to_string(num_labels) + " for " +
                           std::to_string(end - cur) + " remaining bytes");
  }
  if (Status shape = CheckOrderingShape(meta.ordering_name, num_labels, meta.k);
      !shape.ok()) {
    return Status::IOError("unservable shape: " + shape.message());
  }
  for (size_t i = 0; i < num_labels; ++i) {
    const std::string_view name = next_token();
    if (name.empty()) return Status::IOError("truncated label list");
    if (meta.labels.Intern(std::string{name}) != i) {
      return Status::IOError("duplicate label name: " + std::string{name});
    }
  }

  PATHEST_RETURN_NOT_OK(expect_key("cardinalities"));
  meta.cards.reserve(num_labels);
  for (size_t i = 0; i < num_labels; ++i) {
    uint64_t f = 0;
    if (!parse_u64(&f)) return Status::IOError("truncated cardinalities");
    meta.cards.push_back(f);
  }

  PATHEST_RETURN_NOT_OK(expect_key("buckets"));
  uint64_t num_buckets = 0;
  if (!parse_u64(&num_buckets) || num_buckets == 0) {
    return Status::IOError("bad bucket count");
  }
  // Same plausibility gate as the label count: a bucket line is at least 6
  // bytes ("0 1 0\n"), so a count past remaining/6 cannot be satisfied by
  // the file and must not drive the reserve below.
  if (num_buckets > static_cast<uint64_t>(end - cur) / 6 + 1) {
    return Status::IOError("implausible bucket count " +
                           std::to_string(num_buckets) + " for " +
                           std::to_string(end - cur) + " remaining bytes");
  }
  std::vector<uint64_t> begin(num_buckets), end_row(num_buckets);
  std::vector<double> sum(num_buckets), sumsq(sumsq_column ? num_buckets : 0);
  for (size_t i = 0; i < num_buckets; ++i) {
    if (!parse_u64(&begin[i]) || !parse_u64(&end_row[i]) ||
        !parse_double(&sum[i]) ||
        (sumsq_column && !parse_double(&sumsq[i]))) {
      return Status::IOError("truncated or malformed bucket " +
                             std::to_string(i));
    }
  }

  auto histogram = HistogramFromBucketRows(std::move(begin), end_row,
                                           std::move(sum), sumsq, false);
  if (!histogram.ok()) return histogram.status();
  return LoadedFrom(meta, std::move(*histogram));
}

// --------------------------------------------------------------- v1 reader

// v1 section 5 against the stage-2 table the loaded ordering holds: the
// persisted rows must be exactly what the ordering derives from (|L|, k)
// — a mismatch means a wrong-but-well-formed file, the one corruption
// class a checksum of the file alone cannot see.
Status CheckCompositionSection(std::string_view payload,
                               const CompositionTable& table) {
  using binfmt::kSectionComposition;
  BoundedReader com(payload);
  uint32_t comp_labels = 0, comp_k = 0;
  uint64_t num_values = 0;
  PATHEST_RETURN_NOT_OK(com.ReadU32(&comp_labels, "composition |L|"));
  PATHEST_RETURN_NOT_OK(com.ReadU32(&comp_k, "composition k"));
  PATHEST_RETURN_NOT_OK(com.ReadU64(&num_values, "composition count"));
  if (comp_labels != table.num_labels() || comp_k != table.max_len()) {
    return SectionError(kSectionComposition,
                        "shape (|L|=" + std::to_string(comp_labels) +
                            ", k=" + std::to_string(comp_k) +
                            ") does not match the catalog");
  }
  const uint64_t expected_values = CompositionValueCount(table);
  if (num_values != expected_values) {
    return SectionError(kSectionComposition,
                        "value count " + std::to_string(num_values) +
                            " (expected " + std::to_string(expected_values) +
                            ")");
  }
  PATHEST_RETURN_NOT_OK(com.ValidateCount(num_values, 8, "composition values"));
  for (uint64_t m = 1; m <= table.max_len(); ++m) {
    for (uint64_t sum = m; sum <= m * table.num_labels(); ++sum) {
      uint64_t v = 0;
      PATHEST_RETURN_NOT_OK(com.ReadU64(&v, "composition value"));
      if (v != table.Count(sum, m)) {
        return SectionError(
            kSectionComposition,
            "value mismatch at (m=" + std::to_string(m) +
                ", sum=" + std::to_string(sum) + "): file has " +
                std::to_string(v) + ", recomputed " +
                std::to_string(table.Count(sum, m)));
      }
    }
  }
  if (!com.AtEnd()) return SectionError(kSectionComposition, "trailing bytes");
  return Status::OK();
}

Result<LoadedPathHistogram> DecodeV1(std::string_view bytes) {
  using namespace binfmt;  // NOLINT — layout constants
  Frame frame;
  CatalogMetadata meta;
  PATHEST_RETURN_NOT_OK(ParseFrame(bytes, kFrameV1, &frame, &meta));

  // ---- section 4: histogram SoA rows.
  std::string_view payload;
  PATHEST_RETURN_NOT_OK(frame.Open(*frame.Find(kSectionHistogram), &payload));
  BoundedReader his(payload);
  uint64_t num_buckets = 0;
  PATHEST_RETURN_NOT_OK(his.ReadU64(&num_buckets, "bucket count"));
  if (num_buckets == 0) {
    return SectionError(kSectionHistogram, "zero buckets");
  }
  // Four u64 rows of num_buckets each — validated as a whole before the
  // rows are sized from the untrusted count.
  PATHEST_RETURN_NOT_OK(his.ValidateCount(num_buckets, 32, "buckets"));
  std::vector<uint64_t> begin(num_buckets), end(num_buckets);
  std::vector<double> sum(num_buckets), sumsq(num_buckets);
  for (uint64_t& v : begin) {
    PATHEST_RETURN_NOT_OK(his.ReadU64(&v, "bucket begins"));
  }
  for (uint64_t& v : end) {
    PATHEST_RETURN_NOT_OK(his.ReadU64(&v, "bucket ends"));
  }
  for (double& v : sum) {
    PATHEST_RETURN_NOT_OK(his.ReadDouble(&v, "bucket sums"));
  }
  for (double& v : sumsq) {
    PATHEST_RETURN_NOT_OK(his.ReadDouble(&v, "bucket sumsqs"));
  }
  if (!his.AtEnd()) return SectionError(kSectionHistogram, "trailing bytes");

  // ---- section 5: composition table (sum family only), checked once the
  // ordering holds its own table.
  const SectionEntry* comp = frame.Find(kSectionComposition);
  if (IsSumFamilyOrdering(meta.ordering_name) != (comp != nullptr)) {
    return SectionError(kSectionComposition,
                        comp == nullptr ? "missing for sum-family ordering"
                                        : "present for non-sum ordering");
  }
  std::string_view comp_payload;
  if (comp != nullptr) PATHEST_RETURN_NOT_OK(frame.Open(*comp, &comp_payload));

  auto histogram = HistogramFromBucketRows(std::move(begin), end,
                                           std::move(sum), sumsq, true);
  if (!histogram.ok()) return histogram.status();
  auto loaded = LoadedFrom(meta, std::move(*histogram));
  if (!loaded.ok() || comp == nullptr) return loaded;
  PATHEST_RETURN_NOT_OK(CheckCompositionSection(
      comp_payload, *CompositionsOf(loaded->estimator.ordering())));
  return loaded;
}

// --------------------------------------------------------------- v2 reader

template <typename T>
std::span<const T> RowSpan(std::string_view payload, uint64_t off,
                           uint64_t n) {
  return {reinterpret_cast<const T*>(payload.data() + off),
          static_cast<size_t>(n)};
}

}  // namespace

namespace internal {

Result<CatalogV2View> ParseCatalogV2(std::string_view bytes,
                                     CatalogVerify verify) {
  using namespace binfmt;  // NOLINT — layout constants
  if (reinterpret_cast<uintptr_t>(bytes.data()) % 8 != 0) {
    return Status::InvalidArgument(
        "catalog v2 buffer must be 8-byte aligned");
  }
  CatalogV2View view;
  Frame frame;
  PATHEST_RETURN_NOT_OK(ParseFrame(bytes, kFrameV2, &frame, &view));
  const uint32_t version = frame.version;

  // ---- bulk shape prologs: validated at EVERY tier (they are a few bytes
  // and they gate all span construction), overflow-safely — this is
  // untrusted data, so no CheckedAdd/CheckedMul (those abort).
  const SectionEntry& hist_entry = *frame.Find(kSectionHistogram);
  std::string_view payload = bytes.substr(hist_entry.offset, hist_entry.length);
  BoundedReader his(payload);
  uint64_t beta = 0;
  Histogram::Rows& rows = view.rows;
  PATHEST_RETURN_NOT_OK(his.ReadU64(&beta, "bucket count"));
  PATHEST_RETURN_NOT_OK(his.ReadU64(&rows.domain_size, "domain size"));
  if (beta == 0) return SectionError(kSectionHistogram, "zero buckets");
  // Each bucket costs >= 16 bytes across the two rows every version has,
  // so this bound both rejects forged counts and keeps the layout math far
  // from u64 overflow.
  if (beta > bytes.size() / 16) {
    return SectionError(kSectionHistogram,
                        "implausible bucket count " + std::to_string(beta));
  }
  const HistogramLayoutV2 hl = HistogramLayout(beta, version);
  if (hl.payload_bytes != hist_entry.length) {
    return SectionError(
        kSectionHistogram,
        "payload is " + std::to_string(hist_entry.length) +
            " bytes but the layout for beta=" + std::to_string(beta) +
            " needs " + std::to_string(hl.payload_bytes));
  }
  // domain_size must be exactly |L_k|; the shape gate in the frame parse
  // guarantees that PathSpace's checked arithmetic cannot abort here.
  if (const uint64_t domain = PathSpace(view.labels.size(), view.k).size();
      domain != rows.domain_size) {
    return SectionError(kSectionHistogram,
                        "domain size " + std::to_string(rows.domain_size) +
                            " does not match |L_k| = " +
                            std::to_string(domain));
  }
  rows.begin = RowSpan<uint64_t>(payload, hl.begin_off, beta);
  rows.sum = RowSpan<double>(payload, hl.sum_off, beta);
  // Checked at EVERY tier (one load): Histogram::Borrow's shape
  // invariant, which must be a typed error here — never a downstream
  // abort — even under kTrusted.
  if (rows.begin[0] != 0) {
    return SectionError(kSectionHistogram, "first bucket must begin at 0");
  }

  // ---- sections 5-6: the stage-2/3 tables versions 2 and 3 persisted
  // for the sum family (both or neither); later versions have neither.
  // No reader interprets them — orderings derive their tables — so the
  // legacy sections are only checksummed, from kChecksums up.
  const bool has_sum_sections = version <= kVersionV2SumSections &&
                                IsSumFamilyOrdering(view.ordering_name);
  for (uint32_t id : {kSectionComposition, kSectionSumIndex}) {
    const SectionEntry* e = frame.Find(id);
    if (e != nullptr && version > kVersionV2SumSections) {
      return SectionError(id, "not part of a version-" +
                                  std::to_string(version) + " file");
    }
    if ((e != nullptr) != has_sum_sections) {
      return SectionError(id, e == nullptr ? "missing for sum-family ordering"
                                           : "present for non-sum ordering");
    }
  }

  if (verify == CatalogVerify::kTrusted) return view;

  // ---- checksum tier: CRC every bulk byte, then structural scans of the
  // histogram rows that certify what the serving fast paths assume without
  // rebuilding anything.
  PATHEST_RETURN_NOT_OK(frame.Open(hist_entry, &payload));
  if (has_sum_sections) {
    std::string_view legacy;
    for (uint32_t id : {kSectionComposition, kSectionSumIndex}) {
      PATHEST_RETURN_NOT_OK(frame.Open(*frame.Find(id), &legacy));
    }
  }

  // begin[0] == 0 was checked above; every bucket must be non-empty, the
  // last ending at the domain size, and every sum a count (finite, >= 0).
  // That is all a Histogram's rows need, so a view that passes is served
  // or copied as it is. No legacy row is read, so none is scanned.
  for (uint64_t b = 0; b < beta; ++b) {
    const uint64_t end = b + 1 < beta ? rows.begin[b + 1] : rows.domain_size;
    if (rows.begin[b] >= end) {
      return SectionError(kSectionHistogram,
                          "begin row does not rise strictly below the "
                          "domain size at bucket " +
                              std::to_string(b));
    }
    if (!(std::isfinite(rows.sum[b]) && rows.sum[b] >= 0.0)) {
      return SectionError(kSectionHistogram,
                          "sum row not finite and non-negative at bucket " +
                              std::to_string(b));
    }
  }
  return view;
}

}  // namespace internal

// ---------------------------------------------------------------- decode

Result<LoadedPathHistogram> DecodeCatalog(std::string_view bytes) {
  switch (SniffCatalogFormat(bytes)) {
    case CatalogFormat::kBinaryV2: {
      auto view = internal::ParseCatalogV2(bytes, CatalogVerify::kChecksums);
      if (!view.ok()) return view.status();
      const Histogram::Rows& rows = view->rows;
      return LoadedFrom(
          *view, Histogram::FromRows(
                     rows.domain_size, {rows.begin.begin(), rows.begin.end()},
                     {rows.sum.begin(), rows.sum.end()}));
    }
    case CatalogFormat::kBinary:
      return DecodeV1(bytes);
    case CatalogFormat::kText:
      break;
  }
  return DecodeText(bytes);
}

Result<LoadedPathHistogram> LoadPathHistogram(const std::string& path) {
  std::string content;
  PATHEST_RETURN_NOT_OK(ReadFileToString(path, &content));
  return DecodeCatalog(content);
}

}  // namespace pathest
