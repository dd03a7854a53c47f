#include "core/serialize.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string_view>

#include "core/serialize_internal.h"
#include "histogram/flat_histogram.h"
#include "ordering/factory.h"
#include "ordering/sum_based.h"
#include "path/path_space.h"
#include "util/combinatorics.h"
#include "util/crc32c.h"
#include "util/safe_io.h"

namespace pathest {

namespace {

constexpr const char* kTextMagic = "pathest-histogram v1";

// Caps shared by both formats: a label dictionary or path length outside
// these is a corrupt or forged file, not a real catalog.
constexpr uint64_t kMaxLabels = 4096;
constexpr uint64_t kMaxLabelNameBytes = 4096;

// The sum-based family carries a composition section (stage-2 table);
// sum-L2 never reaches serialization (IsSerializableOrdering rejects it).
bool IsSumFamilyOrdering(const std::string& name) {
  return name.rfind("sum-", 0) == 0;
}

// The v2 bulk rows are written and mapped as raw little-endian u64/f64
// images; both directions assume the host matches.
static_assert(std::endian::native == std::endian::little,
              "binary catalog v2 bulk rows assume a little-endian host");

// Metadata payload builders shared verbatim by the v1 and v2 writers
// (sections 1-3 are byte-identical across versions).
std::string BuildOrderingPayload(const std::string& ordering_name,
                                 const char* type_name, size_t k) {
  std::string payload;
  AppendLengthPrefixedString(&payload, ordering_name);
  AppendLengthPrefixedString(&payload, type_name);
  AppendU32(&payload, static_cast<uint32_t>(k));
  AppendU32(&payload, 0);
  return payload;
}

std::string BuildLabelsPayload(const LabelDictionary& labels) {
  std::string payload;
  AppendU32(&payload, static_cast<uint32_t>(labels.size()));
  for (const std::string& name : labels.names()) {
    AppendLengthPrefixedString(&payload, name);
  }
  return payload;
}

std::string BuildCardsPayload(const std::vector<uint64_t>& cardinalities) {
  std::string payload;
  AppendU32(&payload, static_cast<uint32_t>(cardinalities.size()));
  AppendU32(&payload, 0);
  for (uint64_t f : cardinalities) AppendU64(&payload, f);
  return payload;
}

// Zero-pads `out` up to offset `off` (v2 interior alignment padding —
// inside the payload, hence covered by the section CRC).
void PadTo(std::string* out, uint64_t off) {
  PATHEST_CHECK(out->size() <= off, "v2 writer overshot a layout offset");
  out->resize(off, '\0');
}

// Raw little-endian row append (the static_assert above licenses memcpy).
template <typename T>
void AppendRow(std::string* out, const T* data, size_t n) {
  out->append(reinterpret_cast<const char*>(data), n * sizeof(T));
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
    case CatalogVerify::kFull:
      return "full";
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

HistogramLayoutV2 HistogramLayout(uint64_t beta) {
  HistogramLayoutV2 l;
  uint64_t at = 16;  // u64 beta + u64 domain_size
  l.begin_off = AlignUp(at, kArrayAlignBytes);
  l.end_off = AlignUp(l.begin_off + 8 * beta, kArrayAlignBytes);
  l.sum_off = AlignUp(l.end_off + 8 * beta, kArrayAlignBytes);
  l.sumsq_off = AlignUp(l.sum_off + 8 * beta, kArrayAlignBytes);
  l.mean_off = AlignUp(l.sumsq_off + 8 * beta, kArrayAlignBytes);
  l.prefix_off = AlignUp(l.mean_off + 8 * beta, kArrayAlignBytes);
  l.eytz_begin_off =
      AlignUp(l.prefix_off + 8 * (beta + 1), kArrayAlignBytes);
  l.eytz_rank_off =
      AlignUp(l.eytz_begin_off + 8 * (beta + 1), kArrayAlignBytes);
  l.payload_bytes = l.eytz_rank_off + 4 * (beta + 1);
  return l;
}

CompositionLayoutV2 CompositionLayout(uint64_t num_values, uint64_t max_len) {
  CompositionLayoutV2 l;
  l.counts_off = AlignUp(16, kArrayAlignBytes);  // u32 |L|, u32 k, u64 count
  l.prefix_off = AlignUp(l.counts_off + 8 * num_values, kArrayAlignBytes);
  l.payload_bytes = l.prefix_off + 8 * (num_values + max_len);
  return l;
}

SumIndexLayoutV2 SumIndexLayout(uint64_t num_cells, uint64_t total_blocks) {
  SumIndexLayoutV2 l;
  l.cell_starts_off = AlignUp(24, kArrayAlignBytes);
  l.keys_off =
      AlignUp(l.cell_starts_off + 8 * (num_cells + 1), kArrayAlignBytes);
  l.offsets_off = AlignUp(l.keys_off + 8 * total_blocks, kArrayAlignBytes);
  l.nops_off = AlignUp(l.offsets_off + 8 * total_blocks, kArrayAlignBytes);
  l.payload_bytes = l.nops_off + 8 * total_blocks;
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

// ------------------------------------------------------------- text writer

Status WritePathHistogram(const PathHistogram& estimator,
                          const LabelDictionary& labels,
                          const std::vector<uint64_t>& label_cardinalities,
                          std::ostream* out) {
  const std::string& ordering_name = estimator.ordering().name();
  if (!IsSerializableOrdering(ordering_name)) {
    return Status::InvalidArgument(
        "ordering '" + ordering_name +
        "' materializes O(|L_k|) state and cannot be serialized compactly");
  }
  if (labels.size() != label_cardinalities.size()) {
    return Status::InvalidArgument("cardinalities size mismatch");
  }
  (*out) << kTextMagic << "\n";
  (*out) << "ordering " << ordering_name << "\n";
  (*out) << "type " << HistogramTypeName(estimator.histogram_type()) << "\n";
  (*out) << "k " << estimator.ordering().space().k() << "\n";
  (*out) << "labels " << labels.size();
  for (const std::string& name : labels.names()) (*out) << ' ' << name;
  (*out) << "\n";
  (*out) << "cardinalities";
  for (uint64_t f : label_cardinalities) (*out) << ' ' << f;
  (*out) << "\n";
  const auto& buckets = estimator.histogram().buckets();
  (*out) << "buckets " << buckets.size() << "\n";
  // Hex double encoding is lossless and locale-independent.
  (*out).precision(17);
  for (const Bucket& b : buckets) {
    (*out) << b.begin << ' ' << b.end << ' ' << std::hexfloat << b.sum << ' '
           << b.sumsq << std::defaultfloat << "\n";
  }
  if (!out->good()) return Status::IOError("histogram write failed");
  return Status::OK();
}

// ----------------------------------------------------------- binary writer

Status WritePathHistogramBinary(const PathHistogram& estimator,
                                const LabelDictionary& labels,
                                const std::vector<uint64_t>& cardinalities,
                                std::string* out) {
  const std::string& ordering_name = estimator.ordering().name();
  if (!IsSerializableOrdering(ordering_name)) {
    return Status::InvalidArgument(
        "ordering '" + ordering_name +
        "' materializes O(|L_k|) state and cannot be serialized compactly");
  }
  if (labels.size() != cardinalities.size()) {
    return Status::InvalidArgument("cardinalities size mismatch");
  }
  const size_t k = estimator.ordering().space().k();
  const size_t num_labels = labels.size();

  // Section payloads, in id order.
  std::vector<std::pair<uint32_t, std::string>> sections;
  sections.emplace_back(
      binfmt::kSectionOrdering,
      BuildOrderingPayload(ordering_name,
                           HistogramTypeName(estimator.histogram_type()), k));
  sections.emplace_back(binfmt::kSectionLabels, BuildLabelsPayload(labels));
  sections.emplace_back(binfmt::kSectionCardinalities,
                        BuildCardsPayload(cardinalities));

  // Structure-of-arrays bucket rows: the column layout the serving
  // FlatHistogram wants, so an mmap tier can point at whole rows.
  const auto& buckets = estimator.histogram().buckets();
  std::string hist_payload;
  hist_payload.reserve(8 + buckets.size() * 32);
  AppendU64(&hist_payload, buckets.size());
  for (const Bucket& b : buckets) AppendU64(&hist_payload, b.begin);
  for (const Bucket& b : buckets) AppendU64(&hist_payload, b.end);
  for (const Bucket& b : buckets) AppendDouble(&hist_payload, b.sum);
  for (const Bucket& b : buckets) AppendDouble(&hist_payload, b.sumsq);
  sections.emplace_back(binfmt::kSectionHistogram, std::move(hist_payload));

  if (IsSumFamilyOrdering(ordering_name)) {
    // The sum-based stage-2 CompositionTable rows, exactly as the ordering
    // rebuilds them from (|L|, k). Carrying them on disk (a) lets the load
    // path cross-check a semantic invariant no CRC can, and (b) is the row
    // layout the mmap serving tier will consume directly.
    CompositionTable table(num_labels, k);
    std::string comp_payload;
    AppendU32(&comp_payload, static_cast<uint32_t>(num_labels));
    AppendU32(&comp_payload, static_cast<uint32_t>(k));
    uint64_t num_values = 0;
    for (uint64_t m = 1; m <= k; ++m) {
      num_values += m * num_labels - m + 1;
    }
    AppendU64(&comp_payload, num_values);
    for (uint64_t m = 1; m <= k; ++m) {
      for (uint64_t sum = m; sum <= m * num_labels; ++sum) {
        AppendU64(&comp_payload, table.Count(sum, m));
      }
    }
    sections.emplace_back(binfmt::kSectionComposition,
                          std::move(comp_payload));
  }

  // Assemble: header, table, payloads. Offsets are absolute.
  const size_t table_bytes = sections.size() * binfmt::kSectionEntryBytes;
  uint64_t offset = binfmt::kHeaderBytes + table_bytes;
  std::string table;
  table.reserve(table_bytes);
  uint64_t total_size = offset;
  for (const auto& [id, payload] : sections) {
    AppendU32(&table, id);
    AppendU32(&table, Crc32c(payload.data(), payload.size()));
    AppendU64(&table, offset);
    AppendU64(&table, payload.size());
    offset += payload.size();
    total_size += payload.size();
  }

  std::string header;
  header.reserve(binfmt::kHeaderBytes);
  header.append(reinterpret_cast<const char*>(binfmt::kMagic),
                binfmt::kMagicBytes);
  AppendU32(&header, binfmt::kVersion);
  AppendU32(&header, static_cast<uint32_t>(sections.size()));
  AppendU64(&header, total_size);
  AppendU32(&header, Crc32c(header.data(), header.size()));
  AppendU32(&header, Crc32c(table.data(), table.size()));

  out->clear();
  out->reserve(total_size);
  out->append(header);
  out->append(table);
  for (const auto& [id, payload] : sections) out->append(payload);
  return Status::OK();
}

Status WritePathHistogramBinaryV2(const PathHistogram& estimator,
                                  const LabelDictionary& labels,
                                  const std::vector<uint64_t>& cardinalities,
                                  std::string* out) {
  const std::string& ordering_name = estimator.ordering().name();
  if (!IsSerializableOrdering(ordering_name)) {
    return Status::InvalidArgument(
        "ordering '" + ordering_name +
        "' materializes O(|L_k|) state and cannot be serialized compactly");
  }
  if (labels.size() != cardinalities.size()) {
    return Status::InvalidArgument("cardinalities size mismatch");
  }
  const size_t k = estimator.ordering().space().k();
  const size_t num_labels = labels.size();

  std::vector<std::pair<uint32_t, std::string>> sections;
  sections.emplace_back(
      binfmt::kSectionOrdering,
      BuildOrderingPayload(ordering_name,
                           HistogramTypeName(estimator.histogram_type()), k));
  sections.emplace_back(binfmt::kSectionLabels, BuildLabelsPayload(labels));
  sections.emplace_back(binfmt::kSectionCardinalities,
                        BuildCardsPayload(cardinalities));

  // Section 4: diagnostic bucket rows plus the PRECOMPUTED serving rows,
  // each at its layout offset so a mapped reader points spans at them.
  const auto& buckets = estimator.histogram().buckets();
  const uint64_t beta = buckets.size();
  const FlatHistogram flat(estimator.histogram());
  const binfmt::HistogramLayoutV2 hl = binfmt::HistogramLayout(beta);
  std::string hist;
  hist.reserve(hl.payload_bytes);
  AppendU64(&hist, beta);
  AppendU64(&hist, estimator.histogram().domain_size());
  {
    std::vector<uint64_t> row(beta);
    for (uint64_t b = 0; b < beta; ++b) row[b] = buckets[b].begin;
    PadTo(&hist, hl.begin_off);
    AppendRow(&hist, row.data(), row.size());
    for (uint64_t b = 0; b < beta; ++b) row[b] = buckets[b].end;
    PadTo(&hist, hl.end_off);
    AppendRow(&hist, row.data(), row.size());
  }
  {
    std::vector<double> row(beta);
    for (uint64_t b = 0; b < beta; ++b) row[b] = buckets[b].sum;
    PadTo(&hist, hl.sum_off);
    AppendRow(&hist, row.data(), row.size());
    for (uint64_t b = 0; b < beta; ++b) row[b] = buckets[b].sumsq;
    PadTo(&hist, hl.sumsq_off);
    AppendRow(&hist, row.data(), row.size());
  }
  PadTo(&hist, hl.mean_off);
  AppendRow(&hist, flat.means().data(), flat.means().size());
  PadTo(&hist, hl.prefix_off);
  AppendRow(&hist, flat.prefix_sums().data(), flat.prefix_sums().size());
  PadTo(&hist, hl.eytz_begin_off);
  AppendRow(&hist, flat.eytz_begins().data(), flat.eytz_begins().size());
  PadTo(&hist, hl.eytz_rank_off);
  AppendRow(&hist, flat.eytz_ranks().data(), flat.eytz_ranks().size());
  PATHEST_CHECK(hist.size() == hl.payload_bytes,
                "v2 histogram payload does not match its layout");
  sections.emplace_back(binfmt::kSectionHistogram, std::move(hist));

  if (IsSumFamilyOrdering(ordering_name)) {
    // Persist the ordering's own stage-2/3 tables (built once at its
    // construction) rather than rebuilding them for the write.
    PATHEST_CHECK(estimator.ordering().kind() == OrderingKind::kSumBased,
                  "sum-family ordering name without a SumBasedOrdering");
    const auto& sum =
        static_cast<const SumBasedOrdering&>(estimator.ordering());
    const CompositionTable& comps = sum.compositions();
    const uint64_t num_values =
        CompositionTable::FlatCountValues(num_labels, k);
    const binfmt::CompositionLayoutV2 cl =
        binfmt::CompositionLayout(num_values, k);
    std::string comp;
    comp.reserve(cl.payload_bytes);
    AppendU32(&comp, static_cast<uint32_t>(num_labels));
    AppendU32(&comp, static_cast<uint32_t>(k));
    AppendU64(&comp, num_values);
    PadTo(&comp, cl.counts_off);
    AppendRow(&comp, comps.flat_counts().data(), comps.flat_counts().size());
    PadTo(&comp, cl.prefix_off);
    AppendRow(&comp, comps.flat_prefix().data(), comps.flat_prefix().size());
    PATHEST_CHECK(comp.size() == cl.payload_bytes,
                  "v2 composition payload does not match its layout");
    sections.emplace_back(binfmt::kSectionComposition, std::move(comp));

    const SumStage3View view = sum.stage3_view();
    const uint64_t num_cells = SumStage3CellCount(num_labels, k);
    const uint64_t total_blocks = view.keys.size();
    const binfmt::SumIndexLayoutV2 sl =
        binfmt::SumIndexLayout(num_cells, total_blocks);
    std::string index;
    index.reserve(sl.payload_bytes);
    AppendU32(&index, static_cast<uint32_t>(view.scheme));
    AppendU32(&index, view.key_bits);
    AppendU64(&index, num_cells);
    AppendU64(&index, total_blocks);
    PadTo(&index, sl.cell_starts_off);
    AppendRow(&index, view.cell_starts.data(), view.cell_starts.size());
    PadTo(&index, sl.keys_off);
    AppendRow(&index, view.keys.data(), view.keys.size());
    PadTo(&index, sl.offsets_off);
    AppendRow(&index, view.offsets.data(), view.offsets.size());
    PadTo(&index, sl.nops_off);
    AppendRow(&index, view.nops.data(), view.nops.size());
    PATHEST_CHECK(index.size() == sl.payload_bytes,
                  "v2 sum-index payload does not match its layout");
    sections.emplace_back(binfmt::kSectionSumIndex, std::move(index));
  }

  // Assemble: header, table, payloads at page-aligned offsets. The gaps
  // are zero padding outside every CRC.
  const size_t table_bytes = sections.size() * binfmt::kSectionEntryBytes;
  std::vector<uint64_t> offsets(sections.size());
  uint64_t cursor =
      binfmt::AlignUp(binfmt::kHeaderBytes + table_bytes, binfmt::kPageBytes);
  uint64_t total_size = binfmt::kHeaderBytes + table_bytes;
  std::string table;
  table.reserve(table_bytes);
  for (size_t i = 0; i < sections.size(); ++i) {
    const auto& [id, payload] = sections[i];
    offsets[i] = cursor;
    AppendU32(&table, id);
    AppendU32(&table, Crc32c(payload.data(), payload.size()));
    AppendU64(&table, cursor);
    AppendU64(&table, payload.size());
    total_size = cursor + payload.size();
    cursor = binfmt::AlignUp(total_size, binfmt::kPageBytes);
  }

  std::string header;
  header.reserve(binfmt::kHeaderBytes);
  header.append(reinterpret_cast<const char*>(binfmt::kMagicV2),
                binfmt::kMagicBytes);
  AppendU32(&header, binfmt::kVersionV2);
  AppendU32(&header, static_cast<uint32_t>(sections.size()));
  AppendU64(&header, total_size);
  AppendU32(&header, Crc32c(header.data(), header.size()));
  AppendU32(&header, Crc32c(table.data(), table.size()));

  out->clear();
  out->reserve(total_size);
  out->append(header);
  out->append(table);
  for (size_t i = 0; i < sections.size(); ++i) {
    PadTo(out, offsets[i]);
    out->append(sections[i].second);
  }
  return Status::OK();
}

Status SavePathHistogram(const PathHistogram& estimator, const Graph& graph,
                         const std::string& path, CatalogFormat format) {
  std::vector<uint64_t> cards(graph.num_labels());
  for (LabelId l = 0; l < graph.num_labels(); ++l) {
    cards[l] = graph.LabelCardinality(l);
  }
  std::string bytes;
  switch (format) {
    case CatalogFormat::kBinary:
      PATHEST_RETURN_NOT_OK(
          WritePathHistogramBinary(estimator, graph.labels(), cards, &bytes));
      break;
    case CatalogFormat::kBinaryV2:
      PATHEST_RETURN_NOT_OK(WritePathHistogramBinaryV2(
          estimator, graph.labels(), cards, &bytes));
      break;
    case CatalogFormat::kText: {
      std::ostringstream out;
      PATHEST_RETURN_NOT_OK(
          WritePathHistogram(estimator, graph.labels(), cards, &out));
      bytes = out.str();
      break;
    }
  }
  // Atomic publication: a crashed or failed save never leaves a partial
  // catalog at `path`, and any previous file there survives byte-identical.
  return AtomicWriteFile(path, bytes);
}

Status SaveLoadedPathHistogram(const LoadedPathHistogram& loaded,
                               const std::string& path, CatalogFormat format) {
  std::string bytes;
  switch (format) {
    case CatalogFormat::kBinary:
      PATHEST_RETURN_NOT_OK(WritePathHistogramBinary(
          loaded.estimator, loaded.labels, loaded.label_cardinalities,
          &bytes));
      break;
    case CatalogFormat::kBinaryV2:
      PATHEST_RETURN_NOT_OK(WritePathHistogramBinaryV2(
          loaded.estimator, loaded.labels, loaded.label_cardinalities,
          &bytes));
      break;
    case CatalogFormat::kText: {
      std::ostringstream out;
      PATHEST_RETURN_NOT_OK(WritePathHistogram(
          loaded.estimator, loaded.labels, loaded.label_cardinalities, &out));
      bytes = out.str();
      break;
    }
  }
  return AtomicWriteFile(path, bytes);
}

// ------------------------------------------------------------- text reader

namespace {

Result<LoadedPathHistogram> ReadPathHistogramText(const std::string& content) {
  // The buffer is parsed with a cursor over the raw bytes: integers via
  // std::from_chars, doubles via strtod (hexfloat). The previous reader
  // paid an istringstream construction plus locale-aware operator>>
  // extraction per line, which dominated large-beta catalog loads (see the
  // timing note in serialize.h).
  const char* cur = content.data();
  const char* const end = content.data() + content.size();

  // The magic is a whole line, not a token (it contains a space).
  const char* nl = std::find(cur, end, '\n');
  if (std::string_view(cur, static_cast<size_t>(nl - cur)) != kTextMagic) {
    return Status::IOError("bad magic: expected '" + std::string(kTextMagic) +
                           "'");
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
  // format rejects the "0x" prefix the writer emits. Tokens point into
  // `content`, which is null-terminated past its last byte, and strtod
  // stops at the token-ending whitespace on its own.
  auto parse_double = [&next_token](double* out) -> bool {
    const std::string_view tok = next_token();
    if (tok.empty()) return false;
    char* parse_end = nullptr;
    *out = std::strtod(tok.data(), &parse_end);
    return parse_end == tok.data() + tok.size();
  };

  PATHEST_RETURN_NOT_OK(expect_key("ordering"));
  std::string ordering_name{next_token()};
  if (!IsSerializableOrdering(ordering_name)) {
    return Status::IOError("unknown serialized ordering: " + ordering_name);
  }

  PATHEST_RETURN_NOT_OK(expect_key("type"));
  auto type = ParseHistogramType(std::string{next_token()});
  if (!type.ok()) return type.status();

  PATHEST_RETURN_NOT_OK(expect_key("k"));
  uint64_t k = 0;
  if (!parse_u64(&k) || k < 1 || k > kMaxPathLength) {
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
  if (Status shape = CheckOrderingShape(ordering_name, num_labels, k);
      !shape.ok()) {
    return Status::IOError("unservable shape: " + shape.message());
  }
  LabelDictionary labels;
  for (size_t i = 0; i < num_labels; ++i) {
    const std::string_view name = next_token();
    if (name.empty()) return Status::IOError("truncated label list");
    if (labels.Intern(std::string{name}) != i) {
      return Status::IOError("duplicate label name: " + std::string{name});
    }
  }

  PATHEST_RETURN_NOT_OK(expect_key("cardinalities"));
  std::vector<uint64_t> cards;
  cards.reserve(num_labels);
  for (size_t i = 0; i < num_labels; ++i) {
    uint64_t f = 0;
    if (!parse_u64(&f)) return Status::IOError("truncated cardinalities");
    cards.push_back(f);
  }

  PATHEST_RETURN_NOT_OK(expect_key("buckets"));
  uint64_t num_buckets = 0;
  if (!parse_u64(&num_buckets) || num_buckets == 0) {
    return Status::IOError("bad bucket count");
  }
  // Same plausibility gate as the label count: a bucket line is at least 8
  // bytes ("0 1 0 0\n"), so a count past remaining/8 cannot be satisfied
  // by the file and must not drive the reserve below.
  if (num_buckets > static_cast<uint64_t>(end - cur) / 8 + 1) {
    return Status::IOError("implausible bucket count " +
                           std::to_string(num_buckets) + " for " +
                           std::to_string(end - cur) + " remaining bytes");
  }
  std::vector<Bucket> buckets;
  buckets.reserve(num_buckets);
  for (size_t i = 0; i < num_buckets; ++i) {
    Bucket b;
    if (!parse_u64(&b.begin) || !parse_u64(&b.end) || !parse_double(&b.sum) ||
        !parse_double(&b.sumsq)) {
      return Status::IOError("truncated or malformed bucket " +
                             std::to_string(i));
    }
    buckets.push_back(b);
  }

  auto histogram = Histogram::FromBuckets(std::move(buckets));
  if (!histogram.ok()) {
    return Status::IOError("invalid buckets: " +
                           histogram.status().message());
  }
  auto ordering = MakeOrderingFromStats(ordering_name, labels, cards, k);
  if (!ordering.ok()) return ordering.status();
  auto estimator = PathHistogram::FromParts(std::move(*ordering),
                                            std::move(*histogram), *type);
  if (!estimator.ok()) return estimator.status();
  return LoadedPathHistogram{std::move(labels), std::move(cards),
                             std::move(*estimator)};
}

}  // namespace

// ----------------------------------------------------------- binary reader

bool LooksLikeBinaryCatalog(std::string_view bytes) {
  return bytes.size() >= binfmt::kMagicBytes &&
         (std::memcmp(bytes.data(), binfmt::kMagic, binfmt::kMagicBytes) ==
              0 ||
          std::memcmp(bytes.data(), binfmt::kMagicV2, binfmt::kMagicBytes) ==
              0);
}

bool BytesAreBinaryV2(std::string_view bytes) {
  return bytes.size() >= binfmt::kMagicBytes &&
         std::memcmp(bytes.data(), binfmt::kMagicV2, binfmt::kMagicBytes) == 0;
}

Result<bool> SniffFileIsBinaryV2(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (!std::filesystem::exists(path)) {
      return Status::NotFound("no such file: " + path);
    }
    return Status::IOError("cannot open " + path);
  }
  char head[binfmt::kMagicBytes];
  in.read(head, sizeof head);
  if (in.gcount() < static_cast<std::streamsize>(sizeof head)) return false;
  return std::memcmp(head, binfmt::kMagicV2, binfmt::kMagicBytes) == 0;
}

Result<CatalogFormat> SniffCatalogFormat(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (!std::filesystem::exists(path)) {
      return Status::NotFound("no such file: " + path);
    }
    return Status::IOError("cannot open " + path);
  }
  char head[binfmt::kMagicBytes];
  in.read(head, sizeof head);
  if (in.gcount() < static_cast<std::streamsize>(sizeof head)) {
    return CatalogFormat::kText;  // too short for any binary magic
  }
  if (std::memcmp(head, binfmt::kMagicV2, binfmt::kMagicBytes) == 0) {
    return CatalogFormat::kBinaryV2;
  }
  if (std::memcmp(head, binfmt::kMagic, binfmt::kMagicBytes) == 0) {
    return CatalogFormat::kBinary;
  }
  return CatalogFormat::kText;
}

namespace {

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

}  // namespace

Result<LoadedPathHistogram> ReadPathHistogramBinary(std::string_view bytes) {
  using namespace binfmt;  // NOLINT — layout constants
  // ---- header: every check happens before the field it gates is used.
  if (bytes.size() < kHeaderBytes) {
    return Status::IOError("binary catalog: truncated header (" +
                           std::to_string(bytes.size()) + " bytes)");
  }
  if (!LooksLikeBinaryCatalog(bytes)) {
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
  if (version != kVersion) {
    return Status::IOError("binary catalog: unsupported format version " +
                           std::to_string(version) + " (reader knows " +
                           std::to_string(kVersion) + ")");
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

  // ---- section table: offsets/lengths bounds-checked before any access.
  BoundedReader table(bytes.data() + kHeaderBytes, table_bytes);
  std::vector<SectionEntry> entries(section_count);
  uint32_t prev_id = 0;
  for (SectionEntry& e : entries) {
    PATHEST_RETURN_NOT_OK(table.ReadU32(&e.id, "section id"));
    PATHEST_RETURN_NOT_OK(table.ReadU32(&e.crc, "section crc"));
    PATHEST_RETURN_NOT_OK(table.ReadU64(&e.offset, "section offset"));
    PATHEST_RETURN_NOT_OK(table.ReadU64(&e.length, "section length"));
    if (e.id <= prev_id) {
      return Status::IOError(
          "binary catalog: section ids not strictly ascending");
    }
    prev_id = e.id;
    if (e.id > kSectionComposition) {
      return Status::IOError("binary catalog: unknown section id " +
                             std::to_string(e.id));
    }
    if (e.offset < kHeaderBytes + table_bytes ||
        e.offset > bytes.size() || e.length > bytes.size() - e.offset) {
      return SectionError(e.id, "extent [" + std::to_string(e.offset) +
                                    ", +" + std::to_string(e.length) +
                                    ") outside the file");
    }
  }

  auto find_section = [&entries](uint32_t id) -> const SectionEntry* {
    for (const SectionEntry& e : entries) {
      if (e.id == id) return &e;
    }
    return nullptr;
  };
  for (uint32_t id : {kSectionOrdering, kSectionLabels,
                      kSectionCardinalities, kSectionHistogram}) {
    if (find_section(id) == nullptr) {
      return SectionError(id, "required section missing");
    }
  }

  // Payload accessor: the CRC is verified before the first byte of a
  // section is interpreted.
  auto open_section = [&](const SectionEntry& e,
                          std::string_view* out) -> Status {
    *out = bytes.substr(e.offset, e.length);
    if (Crc32c(out->data(), out->size()) != e.crc) {
      return SectionError(e.id, "checksum mismatch over " +
                                    std::to_string(e.length) + " bytes");
    }
    return Status::OK();
  };

  // ---- section 1: ordering identity.
  std::string_view payload;
  PATHEST_RETURN_NOT_OK(open_section(*find_section(kSectionOrdering),
                                     &payload));
  BoundedReader ord(payload);
  std::string ordering_name, type_name;
  uint32_t k32 = 0, reserved = 0;
  PATHEST_RETURN_NOT_OK(
      ord.ReadLengthPrefixedString(&ordering_name, 64, "ordering name"));
  PATHEST_RETURN_NOT_OK(
      ord.ReadLengthPrefixedString(&type_name, 64, "histogram type"));
  PATHEST_RETURN_NOT_OK(ord.ReadU32(&k32, "k"));
  PATHEST_RETURN_NOT_OK(ord.ReadU32(&reserved, "ordering reserved"));
  if (!ord.AtEnd()) {
    return SectionError(kSectionOrdering, "trailing bytes");
  }
  if (!IsSerializableOrdering(ordering_name)) {
    return SectionError(kSectionOrdering,
                        "unknown serialized ordering: " + ordering_name);
  }
  auto type = ParseHistogramType(type_name);
  if (!type.ok()) {
    return SectionError(kSectionOrdering, type.status().message());
  }
  const uint64_t k = k32;
  if (k < 1 || k > kMaxPathLength) {
    return SectionError(kSectionOrdering, "bad k " + std::to_string(k));
  }

  // ---- section 2: label dictionary.
  PATHEST_RETURN_NOT_OK(open_section(*find_section(kSectionLabels),
                                     &payload));
  BoundedReader lab(payload);
  uint32_t num_labels = 0;
  PATHEST_RETURN_NOT_OK(lab.ReadU32(&num_labels, "label count"));
  if (num_labels == 0 || num_labels > kMaxLabels) {
    return SectionError(kSectionLabels, "implausible label count " +
                                            std::to_string(num_labels));
  }
  if (Status shape = CheckOrderingShape(ordering_name, num_labels, k);
      !shape.ok()) {
    return SectionError(kSectionLabels, shape.message());
  }
  // Each label costs at least its 4-byte length prefix.
  PATHEST_RETURN_NOT_OK(lab.ValidateCount(num_labels, 4, "labels"));
  LabelDictionary labels;
  for (uint32_t i = 0; i < num_labels; ++i) {
    std::string name;
    PATHEST_RETURN_NOT_OK(
        lab.ReadLengthPrefixedString(&name, kMaxLabelNameBytes, "label name"));
    if (name.empty()) {
      return SectionError(kSectionLabels, "empty label name");
    }
    if (labels.Intern(name) != i) {
      return SectionError(kSectionLabels, "duplicate label name: " + name);
    }
  }
  if (!lab.AtEnd()) return SectionError(kSectionLabels, "trailing bytes");

  // ---- section 3: cardinalities.
  PATHEST_RETURN_NOT_OK(open_section(*find_section(kSectionCardinalities),
                                     &payload));
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
  std::vector<uint64_t> cards;
  cards.reserve(card_count);
  for (uint32_t i = 0; i < card_count; ++i) {
    uint64_t f = 0;
    PATHEST_RETURN_NOT_OK(car.ReadU64(&f, "cardinality"));
    cards.push_back(f);
  }
  if (!car.AtEnd()) {
    return SectionError(kSectionCardinalities, "trailing bytes");
  }

  // ---- section 4: histogram SoA rows.
  PATHEST_RETURN_NOT_OK(open_section(*find_section(kSectionHistogram),
                                     &payload));
  BoundedReader his(payload);
  uint64_t num_buckets = 0;
  PATHEST_RETURN_NOT_OK(his.ReadU64(&num_buckets, "bucket count"));
  if (num_buckets == 0) {
    return SectionError(kSectionHistogram, "zero buckets");
  }
  // Four u64 rows of num_buckets each — validated as a whole before the
  // bucket vector is sized from the untrusted count.
  PATHEST_RETURN_NOT_OK(his.ValidateCount(num_buckets, 32, "buckets"));
  std::vector<Bucket> buckets(num_buckets);
  for (Bucket& b : buckets) {
    PATHEST_RETURN_NOT_OK(his.ReadU64(&b.begin, "bucket begins"));
  }
  for (Bucket& b : buckets) {
    PATHEST_RETURN_NOT_OK(his.ReadU64(&b.end, "bucket ends"));
  }
  for (Bucket& b : buckets) {
    PATHEST_RETURN_NOT_OK(his.ReadDouble(&b.sum, "bucket sums"));
  }
  for (Bucket& b : buckets) {
    PATHEST_RETURN_NOT_OK(his.ReadDouble(&b.sumsq, "bucket sumsqs"));
  }
  if (!his.AtEnd()) return SectionError(kSectionHistogram, "trailing bytes");

  // ---- section 5: composition table (sum family only).
  const SectionEntry* comp_entry = find_section(kSectionComposition);
  if (IsSumFamilyOrdering(ordering_name) != (comp_entry != nullptr)) {
    return SectionError(kSectionComposition,
                        comp_entry == nullptr
                            ? "missing for sum-family ordering"
                            : "present for non-sum ordering");
  }
  if (comp_entry != nullptr) {
    PATHEST_RETURN_NOT_OK(open_section(*comp_entry, &payload));
    BoundedReader com(payload);
    uint32_t comp_labels = 0, comp_k = 0;
    uint64_t num_values = 0;
    PATHEST_RETURN_NOT_OK(com.ReadU32(&comp_labels, "composition |L|"));
    PATHEST_RETURN_NOT_OK(com.ReadU32(&comp_k, "composition k"));
    PATHEST_RETURN_NOT_OK(com.ReadU64(&num_values, "composition count"));
    if (comp_labels != num_labels || comp_k != k) {
      return SectionError(kSectionComposition,
                          "shape (|L|=" + std::to_string(comp_labels) +
                              ", k=" + std::to_string(comp_k) +
                              ") does not match the catalog");
    }
    uint64_t expected_values = 0;
    for (uint64_t m = 1; m <= k; ++m) {
      expected_values += m * num_labels - m + 1;
    }
    if (num_values != expected_values) {
      return SectionError(kSectionComposition,
                          "value count " + std::to_string(num_values) +
                              " (expected " + std::to_string(expected_values) +
                              ")");
    }
    PATHEST_RETURN_NOT_OK(
        com.ValidateCount(num_values, 8, "composition values"));
    // Semantic integrity beyond the CRC: the persisted stage-2 rows must be
    // exactly what the ordering will rebuild from (|L|, k) — a mismatch
    // means a wrong-but-well-formed file, the one corruption class a
    // checksum of the file alone cannot see.
    CompositionTable expected(num_labels, k);
    for (uint64_t m = 1; m <= k; ++m) {
      for (uint64_t sum = m; sum <= m * num_labels; ++sum) {
        uint64_t v = 0;
        PATHEST_RETURN_NOT_OK(com.ReadU64(&v, "composition value"));
        if (v != expected.Count(sum, m)) {
          return SectionError(
              kSectionComposition,
              "value mismatch at (m=" + std::to_string(m) +
                  ", sum=" + std::to_string(sum) + "): file has " +
                  std::to_string(v) + ", recomputed " +
                  std::to_string(expected.Count(sum, m)));
        }
      }
    }
    if (!com.AtEnd()) {
      return SectionError(kSectionComposition, "trailing bytes");
    }
  }

  // ---- assembly (shared semantic validation with the text path).
  auto histogram = Histogram::FromBuckets(std::move(buckets));
  if (!histogram.ok()) {
    return SectionError(kSectionHistogram,
                        "invalid buckets: " + histogram.status().message());
  }
  auto ordering = MakeOrderingFromStats(ordering_name, labels, cards, k);
  if (!ordering.ok()) return ordering.status();
  auto estimator = PathHistogram::FromParts(std::move(*ordering),
                                            std::move(*histogram), *type);
  if (!estimator.ok()) return estimator.status();
  return LoadedPathHistogram{std::move(labels), std::move(cards),
                             std::move(*estimator)};
}

// -------------------------------------------------- v2 parse layer (shared)

namespace internal {

namespace {

template <typename T>
std::span<const T> RowSpan(std::string_view payload, uint64_t off,
                           uint64_t n) {
  return {reinterpret_cast<const T*>(payload.data() + off),
          static_cast<size_t>(n)};
}

// Bit-exact row comparison (doubles compared as raw bytes: the full tier
// demands the persisted serving rows be EXACTLY what a rebuild produces).
template <typename T>
bool RowsIdentical(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

}  // namespace

Result<CatalogV2View> ParseCatalogV2(std::string_view bytes,
                                     CatalogVerify verify) {
  using namespace binfmt;  // NOLINT — layout constants
  if (reinterpret_cast<uintptr_t>(bytes.data()) % 8 != 0) {
    return Status::InvalidArgument(
        "catalog v2 buffer must be 8-byte aligned");
  }
  // ---- header: same authentication discipline as v1.
  if (bytes.size() < kHeaderBytes) {
    return Status::IOError("binary catalog: truncated header (" +
                           std::to_string(bytes.size()) + " bytes)");
  }
  if (!BytesAreBinaryV2(bytes)) {
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
  if (version != kVersionV2) {
    return Status::IOError("binary catalog: unsupported format version " +
                           std::to_string(version) + " (reader knows " +
                           std::to_string(kVersionV2) + ")");
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

  // ---- section table: extents AND page alignment, checked up front.
  BoundedReader table(bytes.data() + kHeaderBytes, table_bytes);
  std::vector<SectionEntry> entries(section_count);
  uint32_t prev_id = 0;
  for (SectionEntry& e : entries) {
    PATHEST_RETURN_NOT_OK(table.ReadU32(&e.id, "section id"));
    PATHEST_RETURN_NOT_OK(table.ReadU32(&e.crc, "section crc"));
    PATHEST_RETURN_NOT_OK(table.ReadU64(&e.offset, "section offset"));
    PATHEST_RETURN_NOT_OK(table.ReadU64(&e.length, "section length"));
    if (e.id <= prev_id) {
      return Status::IOError(
          "binary catalog: section ids not strictly ascending");
    }
    prev_id = e.id;
    if (e.id > kSectionSumIndex) {
      return Status::IOError("binary catalog: unknown section id " +
                             std::to_string(e.id));
    }
    if (e.offset < kHeaderBytes + table_bytes || e.offset > bytes.size() ||
        e.length > bytes.size() - e.offset) {
      return SectionError(e.id, "extent [" + std::to_string(e.offset) +
                                    ", +" + std::to_string(e.length) +
                                    ") outside the file");
    }
    if (e.offset % kPageBytes != 0) {
      return SectionError(e.id, "offset " + std::to_string(e.offset) +
                                    " is not page-aligned");
    }
  }
  auto find_section = [&entries](uint32_t id) -> const SectionEntry* {
    for (const SectionEntry& e : entries) {
      if (e.id == id) return &e;
    }
    return nullptr;
  };
  for (uint32_t id : {kSectionOrdering, kSectionLabels,
                      kSectionCardinalities, kSectionHistogram}) {
    if (find_section(id) == nullptr) {
      return SectionError(id, "required section missing");
    }
  }
  auto open_checked = [&](const SectionEntry& e,
                          std::string_view* out) -> Status {
    *out = bytes.substr(e.offset, e.length);
    if (Crc32c(out->data(), out->size()) != e.crc) {
      return SectionError(e.id, "checksum mismatch over " +
                                    std::to_string(e.length) + " bytes");
    }
    return Status::OK();
  };

  CatalogV2View view;

  // ---- metadata sections: ALWAYS CRC-verified and fully parsed (they are
  // tiny, and every tier's shape validation depends on them).
  std::string_view payload;
  PATHEST_RETURN_NOT_OK(
      open_checked(*find_section(kSectionOrdering), &payload));
  BoundedReader ord(payload);
  std::string type_name;
  uint32_t k32 = 0, reserved = 0;
  PATHEST_RETURN_NOT_OK(ord.ReadLengthPrefixedString(&view.ordering_name, 64,
                                                     "ordering name"));
  PATHEST_RETURN_NOT_OK(
      ord.ReadLengthPrefixedString(&type_name, 64, "histogram type"));
  PATHEST_RETURN_NOT_OK(ord.ReadU32(&k32, "k"));
  PATHEST_RETURN_NOT_OK(ord.ReadU32(&reserved, "ordering reserved"));
  if (!ord.AtEnd()) return SectionError(kSectionOrdering, "trailing bytes");
  if (!IsSerializableOrdering(view.ordering_name)) {
    return SectionError(kSectionOrdering,
                        "unknown serialized ordering: " + view.ordering_name);
  }
  auto type = ParseHistogramType(type_name);
  if (!type.ok()) {
    return SectionError(kSectionOrdering, type.status().message());
  }
  view.histogram_type = *type;
  view.k = k32;
  if (view.k < 1 || view.k > kMaxPathLength) {
    return SectionError(kSectionOrdering, "bad k " + std::to_string(view.k));
  }

  PATHEST_RETURN_NOT_OK(open_checked(*find_section(kSectionLabels),
                                     &payload));
  BoundedReader lab(payload);
  uint32_t num_labels = 0;
  PATHEST_RETURN_NOT_OK(lab.ReadU32(&num_labels, "label count"));
  if (num_labels == 0 || num_labels > kMaxLabels) {
    return SectionError(kSectionLabels, "implausible label count " +
                                            std::to_string(num_labels));
  }
  if (Status shape = CheckOrderingShape(view.ordering_name, num_labels, view.k);
      !shape.ok()) {
    return SectionError(kSectionLabels, shape.message());
  }
  PATHEST_RETURN_NOT_OK(lab.ValidateCount(num_labels, 4, "labels"));
  for (uint32_t i = 0; i < num_labels; ++i) {
    std::string name;
    PATHEST_RETURN_NOT_OK(
        lab.ReadLengthPrefixedString(&name, kMaxLabelNameBytes, "label name"));
    if (name.empty()) return SectionError(kSectionLabels, "empty label name");
    if (view.labels.Intern(name) != i) {
      return SectionError(kSectionLabels, "duplicate label name: " + name);
    }
  }
  if (!lab.AtEnd()) return SectionError(kSectionLabels, "trailing bytes");

  PATHEST_RETURN_NOT_OK(open_checked(*find_section(kSectionCardinalities),
                                     &payload));
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
  view.cards.reserve(card_count);
  for (uint32_t i = 0; i < card_count; ++i) {
    uint64_t f = 0;
    PATHEST_RETURN_NOT_OK(car.ReadU64(&f, "cardinality"));
    view.cards.push_back(f);
  }
  if (!car.AtEnd()) {
    return SectionError(kSectionCardinalities, "trailing bytes");
  }

  // ---- bulk shape prologs: validated at EVERY tier (they are a few bytes
  // and they gate all span construction), overflow-safely — this is
  // untrusted data, so no CheckedAdd/CheckedMul (those abort).
  const SectionEntry& hist_entry = *find_section(kSectionHistogram);
  payload = bytes.substr(hist_entry.offset, hist_entry.length);
  BoundedReader his(payload);
  PATHEST_RETURN_NOT_OK(his.ReadU64(&view.beta, "bucket count"));
  PATHEST_RETURN_NOT_OK(his.ReadU64(&view.domain_size, "domain size"));
  if (view.beta == 0) return SectionError(kSectionHistogram, "zero buckets");
  // Each bucket costs >= 32 bytes across the diagnostic rows alone, so this
  // bound both rejects forged counts and keeps the layout math far from
  // u64 overflow.
  if (view.beta > bytes.size() / 32) {
    return SectionError(kSectionHistogram, "implausible bucket count " +
                                               std::to_string(view.beta));
  }
  const HistogramLayoutV2 hl = HistogramLayout(view.beta);
  if (hl.payload_bytes != hist_entry.length) {
    return SectionError(
        kSectionHistogram,
        "payload is " + std::to_string(hist_entry.length) +
            " bytes but the layout for beta=" + std::to_string(view.beta) +
            " needs " + std::to_string(hl.payload_bytes));
  }
  // domain_size must be exactly |L_k|; the shape gate above guarantees
  // that PathSpace's checked arithmetic cannot abort here.
  if (const uint64_t domain = PathSpace(num_labels, view.k).size();
      domain != view.domain_size) {
    return SectionError(kSectionHistogram,
                        "domain size " + std::to_string(view.domain_size) +
                            " does not match |L_k| = " +
                            std::to_string(domain));
  }
  view.begin = RowSpan<uint64_t>(payload, hl.begin_off, view.beta);
  view.end = RowSpan<uint64_t>(payload, hl.end_off, view.beta);
  view.sum_bits = RowSpan<uint64_t>(payload, hl.sum_off, view.beta);
  view.sumsq_bits = RowSpan<uint64_t>(payload, hl.sumsq_off, view.beta);
  view.mean = RowSpan<double>(payload, hl.mean_off, view.beta);
  view.prefix = RowSpan<double>(payload, hl.prefix_off, view.beta + 1);
  view.eytz_begin =
      RowSpan<uint64_t>(payload, hl.eytz_begin_off, view.beta + 1);
  view.eytz_rank =
      RowSpan<uint32_t>(payload, hl.eytz_rank_off, view.beta + 1);
  // Checked at EVERY tier (one load): FlatHistogram's borrowed-shape
  // invariant, which must be a typed error here — never a downstream
  // abort — even under kTrusted.
  if (view.begin[0] != 0) {
    return SectionError(kSectionHistogram, "first bucket must begin at 0");
  }

  // ---- sections 5-6: present iff sum family, both or neither.
  view.has_sum_sections = IsSumFamilyOrdering(view.ordering_name);
  const SectionEntry* comp_entry = find_section(kSectionComposition);
  const SectionEntry* index_entry = find_section(kSectionSumIndex);
  if (view.has_sum_sections != (comp_entry != nullptr)) {
    return SectionError(kSectionComposition,
                        comp_entry == nullptr
                            ? "missing for sum-family ordering"
                            : "present for non-sum ordering");
  }
  if (view.has_sum_sections != (index_entry != nullptr)) {
    return SectionError(kSectionSumIndex,
                        index_entry == nullptr
                            ? "missing for sum-family ordering"
                            : "present for non-sum ordering");
  }
  std::string_view comp_payload, index_payload;
  uint64_t num_cells = 0, total_blocks = 0;
  if (view.has_sum_sections) {
    comp_payload = bytes.substr(comp_entry->offset, comp_entry->length);
    BoundedReader com(comp_payload);
    uint32_t comp_labels = 0, comp_k = 0;
    uint64_t num_values = 0;
    PATHEST_RETURN_NOT_OK(com.ReadU32(&comp_labels, "composition |L|"));
    PATHEST_RETURN_NOT_OK(com.ReadU32(&comp_k, "composition k"));
    PATHEST_RETURN_NOT_OK(com.ReadU64(&num_values, "composition count"));
    if (comp_labels != num_labels || comp_k != view.k) {
      return SectionError(kSectionComposition,
                          "shape (|L|=" + std::to_string(comp_labels) +
                              ", k=" + std::to_string(comp_k) +
                              ") does not match the catalog");
    }
    const uint64_t expected_values =
        CompositionTable::FlatCountValues(num_labels, view.k);
    if (num_values != expected_values) {
      return SectionError(kSectionComposition,
                          "value count " + std::to_string(num_values) +
                              " (expected " +
                              std::to_string(expected_values) + ")");
    }
    const CompositionLayoutV2 cl = CompositionLayout(num_values, view.k);
    if (cl.payload_bytes != comp_entry->length) {
      return SectionError(kSectionComposition,
                          "payload is " + std::to_string(comp_entry->length) +
                              " bytes but the layout needs " +
                              std::to_string(cl.payload_bytes));
    }
    view.comp_counts = RowSpan<uint64_t>(comp_payload, cl.counts_off,
                                         num_values);
    view.comp_prefix = RowSpan<uint64_t>(comp_payload, cl.prefix_off,
                                         num_values + view.k);

    index_payload = bytes.substr(index_entry->offset, index_entry->length);
    BoundedReader idx(index_payload);
    uint32_t scheme32 = 0;
    PATHEST_RETURN_NOT_OK(idx.ReadU32(&scheme32, "sum-index scheme"));
    PATHEST_RETURN_NOT_OK(idx.ReadU32(&view.sum_key_bits, "sum-index bits"));
    PATHEST_RETURN_NOT_OK(idx.ReadU64(&num_cells, "sum-index cells"));
    PATHEST_RETURN_NOT_OK(idx.ReadU64(&total_blocks, "sum-index blocks"));
    // The shape gate guarantees a key; a forged scheme 0 (never written)
    // fails this comparison.
    SumKeyScheme expected_scheme;
    uint32_t expected_bits;
    ChooseSumKeyScheme(num_labels, view.k, &expected_scheme, &expected_bits);
    if (scheme32 != static_cast<uint32_t>(expected_scheme) ||
        view.sum_key_bits != expected_bits) {
      return SectionError(
          kSectionSumIndex,
          "key scheme " + std::to_string(scheme32) + "/" +
              std::to_string(view.sum_key_bits) + " bits does not match " +
              std::to_string(static_cast<uint32_t>(expected_scheme)) + "/" +
              std::to_string(expected_bits) + " for this space");
    }
    view.sum_scheme = expected_scheme;
    const uint64_t expected_cells = SumStage3CellCount(num_labels, view.k);
    if (num_cells != expected_cells) {
      return SectionError(kSectionSumIndex,
                          "cell count " + std::to_string(num_cells) +
                              " (expected " + std::to_string(expected_cells) +
                              ")");
    }
    // Each block costs 24 bytes across keys/offsets/nops; bounding it here
    // keeps the layout math overflow-free before the exact length check.
    if (total_blocks > index_entry->length / 24 + 1) {
      return SectionError(kSectionSumIndex, "implausible block count " +
                                                std::to_string(total_blocks));
    }
    const SumIndexLayoutV2 sl = SumIndexLayout(num_cells, total_blocks);
    if (sl.payload_bytes != index_entry->length) {
      return SectionError(kSectionSumIndex,
                          "payload is " +
                              std::to_string(index_entry->length) +
                              " bytes but the layout needs " +
                              std::to_string(sl.payload_bytes));
    }
    view.cell_starts = RowSpan<uint64_t>(index_payload, sl.cell_starts_off,
                                         num_cells + 1);
    view.keys = RowSpan<uint64_t>(index_payload, sl.keys_off, total_blocks);
    view.offsets =
        RowSpan<uint64_t>(index_payload, sl.offsets_off, total_blocks);
    view.nops = RowSpan<uint64_t>(index_payload, sl.nops_off, total_blocks);
  }

  if (verify == CatalogVerify::kTrusted) return view;

  // ---- checksum tier: CRC every bulk byte, then structural scans that
  // certify what the serving fast paths assume without rebuilding anything.
  if (Crc32c(payload.data(), payload.size()) != hist_entry.crc) {
    return SectionError(kSectionHistogram,
                        "checksum mismatch over " +
                            std::to_string(hist_entry.length) + " bytes");
  }
  if (view.has_sum_sections) {
    if (Crc32c(comp_payload.data(), comp_payload.size()) != comp_entry->crc) {
      return SectionError(kSectionComposition,
                          "checksum mismatch over " +
                              std::to_string(comp_entry->length) + " bytes");
    }
    if (Crc32c(index_payload.data(), index_payload.size()) !=
        index_entry->crc) {
      return SectionError(kSectionSumIndex,
                          "checksum mismatch over " +
                              std::to_string(index_entry->length) + " bytes");
    }
  }

  for (uint64_t b = 0; b < view.beta; ++b) {
    const uint64_t bucket_end =
        b + 1 < view.beta ? view.begin[b + 1] : view.domain_size;
    if (view.end[b] != bucket_end || view.end[b] <= view.begin[b]) {
      return SectionError(kSectionHistogram,
                          "bucket chain broken at bucket " +
                              std::to_string(b));
    }
  }
  if (view.prefix[0] != 0.0) {
    return SectionError(kSectionHistogram, "prefix row must start at 0");
  }
  for (uint64_t b = 0; b <= view.beta; ++b) {
    if (!std::isfinite(view.prefix[b]) ||
        (b < view.beta && !std::isfinite(view.mean[b]))) {
      return SectionError(kSectionHistogram,
                          "non-finite serving row value at " +
                              std::to_string(b));
    }
  }
  for (uint64_t slot = 1; slot <= view.beta; ++slot) {
    const uint32_t rank = view.eytz_rank[slot];
    if (rank >= view.beta || view.eytz_begin[slot] != view.begin[rank]) {
      return SectionError(kSectionHistogram,
                          "Eytzinger row inconsistent at slot " +
                              std::to_string(slot));
    }
  }
  if (view.has_sum_sections) {
    // Composition prefix rows: per-m running sums of the count rows,
    // checked with overflow-safe compares.
    size_t count_at = 0, prefix_at = 0;
    for (uint64_t m = 1; m <= view.k; ++m) {
      const size_t row_len = m * num_labels - m + 1;
      if (view.comp_prefix[prefix_at] != 0) {
        return SectionError(kSectionComposition,
                            "prefix row for m=" + std::to_string(m) +
                                " must start at 0");
      }
      for (size_t i = 0; i < row_len; ++i) {
        const uint64_t lo = view.comp_prefix[prefix_at + i];
        const uint64_t hi = view.comp_prefix[prefix_at + i + 1];
        if (hi < lo || hi - lo != view.comp_counts[count_at + i]) {
          return SectionError(kSectionComposition,
                              "prefix row inconsistent at (m=" +
                                  std::to_string(m) +
                                  ", i=" + std::to_string(i) + ")");
        }
      }
      count_at += row_len;
      prefix_at += row_len + 1;
    }
    if (view.cell_starts[0] != 0 ||
        view.cell_starts[num_cells] != total_blocks) {
      return SectionError(kSectionSumIndex,
                          "cell directory does not span the block arrays");
    }
    for (uint64_t c = 0; c < num_cells; ++c) {
      if (view.cell_starts[c + 1] < view.cell_starts[c] ||
          view.cell_starts[c + 1] > total_blocks) {
        return SectionError(kSectionSumIndex,
                            "cell directory not monotone at cell " +
                                std::to_string(c));
      }
      // Keys strictly ascending (Rank's binary search), and the blocks
      // contiguous from offset 0 in that same order (Unrank's).
      const uint64_t first = view.cell_starts[c];
      if (first < view.cell_starts[c + 1] && view.offsets[first] != 0) {
        return SectionError(kSectionSumIndex,
                            "first block offset not 0 in cell " +
                                std::to_string(c));
      }
      for (uint64_t b = first + 1; b < view.cell_starts[c + 1]; ++b) {
        if (view.keys[b] <= view.keys[b - 1]) {
          return SectionError(kSectionSumIndex,
                              "keys not strictly ascending in cell " +
                                  std::to_string(c));
        }
        if (view.offsets[b] < view.offsets[b - 1] ||
            view.offsets[b] - view.offsets[b - 1] != view.nops[b - 1]) {
          return SectionError(kSectionSumIndex,
                              "blocks not contiguous in key order in cell " +
                                  std::to_string(c));
        }
      }
    }
  }

  if (verify != CatalogVerify::kFull) return view;

  // ---- full tier: the persisted DERIVED rows must be bit-identical to a
  // fresh rebuild from the primary data — the wrong-but-well-formed
  // corruption class no checksum of the file alone can see.
  std::vector<Bucket> buckets(view.beta);
  for (uint64_t b = 0; b < view.beta; ++b) {
    buckets[b].begin = view.begin[b];
    buckets[b].end = view.end[b];
    buckets[b].sum = std::bit_cast<double>(view.sum_bits[b]);
    buckets[b].sumsq = std::bit_cast<double>(view.sumsq_bits[b]);
  }
  auto histogram = Histogram::FromBuckets(std::move(buckets));
  if (!histogram.ok()) {
    return SectionError(kSectionHistogram,
                        "invalid buckets: " + histogram.status().message());
  }
  const FlatHistogram fresh(*histogram);
  if (!RowsIdentical(view.mean, fresh.means()) ||
      !RowsIdentical(view.prefix, fresh.prefix_sums()) ||
      !RowsIdentical(view.eytz_begin, fresh.eytz_begins()) ||
      !RowsIdentical(view.eytz_rank, fresh.eytz_ranks())) {
    return SectionError(kSectionHistogram,
                        "persisted serving rows differ from a fresh rebuild");
  }
  if (view.has_sum_sections) {
    const CompositionTable expected(num_labels, view.k);
    if (!RowsIdentical(view.comp_counts, expected.flat_counts()) ||
        !RowsIdentical(view.comp_prefix, expected.flat_prefix())) {
      return SectionError(kSectionComposition,
                          "persisted rows differ from a fresh rebuild");
    }
    const SumStage3Index rebuilt = BuildSumStage3Index(num_labels, view.k);
    if (!RowsIdentical(view.cell_starts,
                       std::span<const uint64_t>(rebuilt.cell_starts)) ||
        !RowsIdentical(view.keys, std::span<const uint64_t>(rebuilt.keys)) ||
        !RowsIdentical(view.offsets,
                       std::span<const uint64_t>(rebuilt.offsets)) ||
        !RowsIdentical(view.nops, std::span<const uint64_t>(rebuilt.nops))) {
      return SectionError(kSectionSumIndex,
                          "persisted index differs from a fresh rebuild");
    }
  }
  return view;
}

}  // namespace internal

Result<LoadedPathHistogram> ReadPathHistogramBinaryV2(std::string_view bytes) {
  auto view = internal::ParseCatalogV2(bytes, CatalogVerify::kFull);
  if (!view.ok()) return view.status();
  std::vector<Bucket> buckets(view->beta);
  for (uint64_t b = 0; b < view->beta; ++b) {
    buckets[b].begin = view->begin[b];
    buckets[b].end = view->end[b];
    buckets[b].sum = std::bit_cast<double>(view->sum_bits[b]);
    buckets[b].sumsq = std::bit_cast<double>(view->sumsq_bits[b]);
  }
  auto histogram = Histogram::FromBuckets(std::move(buckets));
  if (!histogram.ok()) {
    return Status::IOError("section histogram: invalid buckets: " +
                           histogram.status().message());
  }
  auto ordering = MakeOrderingFromStats(view->ordering_name, view->labels,
                                        view->cards, view->k);
  if (!ordering.ok()) return ordering.status();
  auto estimator = PathHistogram::FromParts(
      std::move(*ordering), std::move(*histogram), view->histogram_type);
  if (!estimator.ok()) return estimator.status();
  return LoadedPathHistogram{std::move(view->labels), std::move(view->cards),
                             std::move(*estimator)};
}

// --------------------------------------------------------------- dispatch

Result<LoadedPathHistogram> ReadPathHistogram(std::istream* in) {
  std::string content{std::istreambuf_iterator<char>(*in),
                      std::istreambuf_iterator<char>()};
  if (BytesAreBinaryV2(content)) return ReadPathHistogramBinaryV2(content);
  if (LooksLikeBinaryCatalog(content)) {
    return ReadPathHistogramBinary(content);
  }
  return ReadPathHistogramText(content);
}

Result<LoadedPathHistogram> LoadPathHistogram(const std::string& path) {
  std::string content;
  PATHEST_RETURN_NOT_OK(ReadFileToString(path, &content));
  if (BytesAreBinaryV2(content)) return ReadPathHistogramBinaryV2(content);
  if (LooksLikeBinaryCatalog(content)) {
    return ReadPathHistogramBinary(content);
  }
  return ReadPathHistogramText(content);
}

}  // namespace pathest
