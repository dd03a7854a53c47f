// pathest: persistence for path statistics.
//
// A production optimizer keeps its statistics in the catalog and reloads
// them at startup rather than rescanning the data. This module serializes a
// PathHistogram (ordering identity + ranking state + buckets) in three
// formats and reconstructs a working estimator WITHOUT access to the
// original selectivities:
//
//   - a versioned, human-auditable TEXT format (the interchange/debug
//     path),
//   - a versioned, checksummed BINARY catalog v1 (below), the section
//     layout v2 grew out of, and
//   - BINARY catalog v2 (below) — the serving format: page-aligned so the
//     daemon maps it and fixes up pointers instead of parsing
//     (core/mapped_catalog.h), and the format online maintenance
//     re-persists every entry in (maint/online_maintenance.h).
//
// LoadPathHistogram sniffs the leading magic and dispatches, so every
// caller (CLI, catalog, benches) reads all three formats transparently.
//
// ---------------------------------------------------------------------------
// Text format ("pathest-histogram v1"), line-oriented:
//   pathest-histogram v1
//   ordering <name>
//   type <histogram-type>
//   k <k>
//   labels <n> <name_1> ... <name_n>         # label id order
//   cardinalities <f_1> ... <f_n>            # for reconstructing rankings
//   buckets <beta>
//   <begin> <end> <sum> <sumsq>              # beta lines, sums in hexfloat
//
// ---------------------------------------------------------------------------
// Binary catalog format v1 ("PESTB1"). All fields little-endian,
// fixed-width; doubles travel as their IEEE-754 bit pattern in a u64
// (bit-exact round trips, no locale, no hexfloat parsing).
//
// Header (32 bytes):
//   offset  size  field
//   0       8     magic: 89 'P' 'E' 'S' 'T' 'B' '1' 0A
//                 (high-bit lead byte + trailing \n, PNG-style: a text
//                 transfer that mangles either is caught at the magic)
//   8       4     u32 format version (= 1)
//   12      4     u32 section count
//   16      8     u64 total file size (must equal the actual byte count —
//                 truncation and padding are caught before any section CRC)
//   24      4     u32 CRC32C over header bytes [0, 24)
//   28      4     u32 CRC32C over the section table bytes
//
// Section table (24 bytes per entry, immediately after the header):
//   u32 section id      u32 CRC32C of the payload
//   u64 absolute offset u64 payload length
// Entries are sorted by ascending id; ids must be unique and known.
// Payloads follow the table back to back, but readers MUST navigate via
// the table (offset/length), never by accumulation — that is what makes
// the layout extensible and each section independently verifiable.
//
// Section payloads (every CRC is verified BEFORE its payload is parsed;
// every count is bounds-checked against the payload size before any
// allocation — see util/safe_io.h BoundedReader):
//   1 ordering       lpstr ordering-name, lpstr histogram-type, u32 k,
//                    u32 reserved(0)          (lpstr = u32 length + bytes)
//   2 labels         u32 n, then n lpstr names in label-id order
//   3 cardinalities  u32 n (== labels n), u32 reserved(0), n × u64 f(l)
//   4 histogram      u64 beta, then FOUR structure-of-arrays rows of beta
//                    u64s each: begin[], end[], sum-bits[], sumsq-bits[]
//                    (column-major — the serving FlatHistogram layout, so
//                    the future mmap tier can point straight at the rows)
//   5 composition    u32 |L|, u32 k, u64 value-count, then for each
//                    m in [1, k] the row Count(sum, m) for
//                    sum in [m, m·|L|] — the sum-based ordering's stage-2
//                    CompositionTable. Present iff the ordering is of the
//                    sum family; verified against a freshly built table on
//                    load (semantic integrity beyond the CRC).
//
// ---------------------------------------------------------------------------
// Binary catalog format v2 ("PESTB2") — the mmap serving format. Same
// 32-byte header and 24-byte section-table layout as v1 (only the magic
// byte '1' -> '2' and the version field differ), but the body is laid out
// for zero-copy consumption:
//
//   * Every section OFFSET is a multiple of kPageBytes (4096). The gap
//     between a section's end and the next section's page-aligned start is
//     zero padding that belongs to NO section: it is outside every CRC and
//     provably ignored by readers (payload lengths are exact).
//   * Every interior ARRAY starts at a multiple of kArrayAlignBytes (64)
//     relative to its payload start. Since page >> 64, the arrays are also
//     64-aligned in absolute file (and therefore mapping) addresses.
//     Padding between a payload's prolog and its arrays is INSIDE the
//     payload, hence covered by the section CRC — a flip there is detected.
//   * Bulk data travels as full little-endian u64 / IEEE-754-bit rows that
//     a mapped reader can point spans at with zero parsing.
//
// v2 section payloads (1-3 are byte-identical to v1):
//   4 histogram    u64 beta, u64 domain_size, then 64-aligned rows
//                  begin u64[beta], end u64[beta], sum-bits u64[beta],
//                  sumsq-bits u64[beta]  (the v1 diagnostic rows), plus the
//                  PRECOMPUTED serving rows of histogram/flat_histogram.h:
//                  mean f64[beta], prefix f64[beta+1],
//                  eytz-begin u64[beta+1], eytz-rank u32[beta+1]
//   5 composition  u32 |L|, u32 k, u64 value-count, then 64-aligned rows
//                  counts u64[value-count]  (v1's m-major rows) and
//                  prefix u64[value-count + k]  (the stage-2 prefix rows
//                  the sum-based Rank fast path reads)
//   6 sum-index    u32 key-scheme (ordering/sum_based.h SumKeyScheme),
//                  u32 key-bits, u64 num-cells, u64 total-blocks, then
//                  64-aligned rows cell-starts u64[num-cells + 1],
//                  keys / offsets / nops u64[total-blocks] each — the flat
//                  stage-3 index exactly as SumBasedOrdering consumes it.
//                  The scheme is 1 (counts) or 2 (sorted), whichever
//                  ChooseSumKeyScheme picks for (|L|, k); 0 is never
//                  written and is rejected as a section error. A shape
//                  with no key never gets here: the label section's
//                  shape gate (CheckOrderingShape) refuses it.
// Sections 5 and 6 are present iff the ordering is of the sum family.
//
// Because the serving rows are persisted rather than derived, constructing
// an Estimator from a mapped v2 file is pure pointer fixup
// (core/mapped_catalog.h) — microseconds and O(1) allocations, with the
// row bytes faulted lazily by the kernel. The copying loader
// (ReadPathHistogramBinaryV2) instead verifies the derived rows against a
// fresh rebuild (full-tier semantics) and returns an owned estimator.
//
// Versioning/compat rules: the major version in the header is bumped on
// ANY layout change to existing sections; readers reject versions they do
// not know. New OPTIONAL sections may be added under new ids without a
// version bump only once readers skip unknown ids — v1 readers do NOT
// (unknown ids are an error), so v1 writers must emit exactly the sections
// above. The committed golden catalog (tests/golden/) pins this layout
// byte-for-byte against accidental drift.
//
// Corruption contract (enforced by tests/fault_injection_test.cc): any
// truncation, bit flip, or forged length/count in a catalog file yields a
// typed Status from the loader — never a crash, hang, unbounded
// allocation, or silently wrong estimator.
//
// Only closed-form orderings (num-*, lex-*, sum-*, gray-*) round-trip:
// ideal/random/sum-L2 materialize O(|L_k|) state whose persistence would
// defeat the purpose of the histogram (the paper's argument for why ideal
// ordering is impractical, now visible as an API boundary).
//
// Timing note (β = 27993 catalog, 1-core container): the text reader —
// slurp + from_chars cursor — costs ~8 ms end to end; the binary reader
// replaces parsing with CRC walks plus memcpy and is the reason the
// serving path prefers this format (see BENCH_catalog_io.json).

#ifndef PATHEST_CORE_SERIALIZE_H_
#define PATHEST_CORE_SERIALIZE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "core/path_histogram.h"
#include "util/status.h"

namespace pathest {

/// \brief On-disk representation of a persisted estimator.
enum class CatalogFormat {
  kText,      // line-oriented, human-auditable (interchange/debug)
  kBinary,    // checksummed section-table binary v1 (copied on load)
  kBinaryV2,  // page-aligned binary v2 (mmap zero-copy serving)
};

const char* CatalogFormatName(CatalogFormat format);
Result<CatalogFormat> ParseCatalogFormat(const std::string& name);

/// \brief How much of a binary catalog v2 to verify before serving it.
///
/// Every tier ALWAYS verifies the header, the section table, page
/// alignment, and the metadata sections (ordering/labels/cardinalities,
/// CRC + full parse) plus the shape prologs of the bulk sections. The
/// tiers differ in how the BULK bytes are treated:
///
///   kTrusted   no bulk CRC, no scans — O(metadata) work, the fast-restart
///              mode. Safe ONLY for files this process (or its cache) has
///              already admitted at kChecksums or better: a flipped bulk
///              byte would serve wrong estimates undetected.
///   kChecksums CRC32C over every bulk section plus structural scans
///              (monotone begins, Eytzinger consistency, prefix-row
///              consistency, ascending index keys with their blocks
///              contiguous from offset 0 in key order). The CatalogCache
///              admission tier — every byte generation is checked once.
///   kFull      kChecksums plus semantic rebuild comparisons: serving rows
///              vs a fresh FlatHistogram, composition rows vs a fresh
///              CompositionTable, stage-3 index vs BuildSumStage3Index.
///              What `catalog verify` and the copying loader use.
enum class CatalogVerify {
  kTrusted,
  kChecksums,
  kFull,
};

const char* CatalogVerifyName(CatalogVerify verify);

/// Binary-format layout constants, exported so the fault-injection harness
/// (util/fault_injection.h) and the format tests can compute section
/// boundaries without a parallel definition of the layout.
namespace binfmt {

inline constexpr size_t kMagicBytes = 8;
inline constexpr unsigned char kMagic[kMagicBytes] = {0x89, 'P',  'E', 'S',
                                                      'T',  'B',  '1', 0x0A};
inline constexpr unsigned char kMagicV2[kMagicBytes] = {0x89, 'P',  'E', 'S',
                                                        'T',  'B',  '2', 0x0A};
inline constexpr uint32_t kVersion = 1;
inline constexpr uint32_t kVersionV2 = 2;
inline constexpr size_t kHeaderBytes = 32;
inline constexpr size_t kSectionEntryBytes = 24;
/// Hard ceiling on the section count a reader will consider (v1 writes at
/// most 5, v2 at most 6); anything larger is a forged header.
inline constexpr uint32_t kMaxSections = 64;

/// v2 alignment rules: section offsets are page multiples; interior arrays
/// are 64-byte multiples relative to their payload start (and, page being
/// a multiple of 64, in absolute mapped addresses too).
inline constexpr uint64_t kPageBytes = 4096;
inline constexpr uint64_t kArrayAlignBytes = 64;

enum SectionId : uint32_t {
  kSectionOrdering = 1,
  kSectionLabels = 2,
  kSectionCardinalities = 3,
  kSectionHistogram = 4,
  kSectionComposition = 5,
  kSectionSumIndex = 6,  // v2 only
};

/// \brief Stable name of a section id ("ordering", ...; "?" if unknown).
const char* SectionName(uint32_t id);

inline constexpr uint64_t AlignUp(uint64_t v, uint64_t align) {
  return (v + align - 1) / align * align;
}

/// v2 payload geometry, computed from the shape prologs alone — the ONE
/// definition of every interior-array offset, shared by the writer, the
/// copying reader, the mapped reader, and the layout tests. All offsets
/// are relative to the payload start; payload_bytes is the exact (unpadded)
/// payload length the section-table entry must carry.
struct HistogramLayoutV2 {
  uint64_t begin_off, end_off, sum_off, sumsq_off;       // u64[beta] each
  uint64_t mean_off, prefix_off;                         // f64[beta], [beta+1]
  uint64_t eytz_begin_off;                               // u64[beta+1]
  uint64_t eytz_rank_off;                                // u32[beta+1]
  uint64_t payload_bytes;
};
HistogramLayoutV2 HistogramLayout(uint64_t beta);

struct CompositionLayoutV2 {
  uint64_t counts_off;  // u64[num_values]
  uint64_t prefix_off;  // u64[num_values + max_len]
  uint64_t payload_bytes;
};
CompositionLayoutV2 CompositionLayout(uint64_t num_values, uint64_t max_len);

struct SumIndexLayoutV2 {
  uint64_t cell_starts_off;  // u64[num_cells + 1]
  uint64_t keys_off, offsets_off, nops_off;  // u64[total_blocks] each
  uint64_t payload_bytes;
};
SumIndexLayoutV2 SumIndexLayout(uint64_t num_cells, uint64_t total_blocks);

}  // namespace binfmt

/// \brief True when `ordering_name` can be reconstructed from label
/// cardinalities alone (no O(|L_k|) state).
bool IsSerializableOrdering(const std::string& ordering_name);

/// \brief Writes the estimator to a stream in the text format.
Status WritePathHistogram(const PathHistogram& estimator,
                          const LabelDictionary& labels,
                          const std::vector<uint64_t>& label_cardinalities,
                          std::ostream* out);

/// \brief Serializes the estimator into `*out` in binary catalog v1.
Status WritePathHistogramBinary(const PathHistogram& estimator,
                                const LabelDictionary& labels,
                                const std::vector<uint64_t>& cardinalities,
                                std::string* out);

/// \brief Serializes the estimator into `*out` in page-aligned binary
/// catalog v2 (precomputed serving rows + stage-2/3 tables — see the
/// format spec above).
Status WritePathHistogramBinaryV2(const PathHistogram& estimator,
                                  const LabelDictionary& labels,
                                  const std::vector<uint64_t>& cardinalities,
                                  std::string* out);

/// \brief Saves the estimator to a file via an atomic write (temp + fsync +
/// rename; util/safe_io.h): a crashed or failed save leaves any previous
/// file at `path` byte-identical.
Status SavePathHistogram(const PathHistogram& estimator, const Graph& graph,
                         const std::string& path,
                         CatalogFormat format = CatalogFormat::kText);

/// \brief A deserialized estimator plus the label dictionary it carries.
struct LoadedPathHistogram {
  LabelDictionary labels;
  std::vector<uint64_t> label_cardinalities;
  PathHistogram estimator;
};

/// \brief True when `bytes` begins with either binary catalog magic
/// (v1 or v2).
bool LooksLikeBinaryCatalog(std::string_view bytes);

/// \brief True when `bytes` begins with the v2 magic specifically.
bool BytesAreBinaryV2(std::string_view bytes);

/// \brief Reads only the leading magic of `path` (no slurp) and reports
/// whether it is a binary catalog v2 — the serving loader's cheap dispatch
/// between the mmap path and the copying path. NotFound/IOError propagate;
/// a file shorter than the magic is simply `false`.
Result<bool> SniffFileIsBinaryV2(const std::string& path);

/// \brief Classifies `path` by its leading magic (no slurp): binary v2,
/// binary v1, or — for anything without a binary magic — text. Behind
/// `catalog verify`'s per-entry format report and `catalog convert`'s
/// skip-if-already-target check. NotFound/IOError propagate.
Result<CatalogFormat> SniffCatalogFormat(const std::string& path);

/// \brief Parses a binary catalog v1 from an in-memory byte buffer,
/// verifying every checksum before interpreting any section.
Result<LoadedPathHistogram> ReadPathHistogramBinary(std::string_view bytes);

/// \brief Parses a binary catalog v2 from an in-memory byte buffer at
/// CatalogVerify::kFull (every CRC, every structural scan, every semantic
/// rebuild comparison) and returns an OWNED estimator. `bytes.data()` must
/// be at least 8-byte aligned (heap buffers always are).
Result<LoadedPathHistogram> ReadPathHistogramBinaryV2(std::string_view bytes);

/// \brief Re-serializes an already-loaded estimator to `path` in `format`
/// through an atomic write — the engine of `pathest_cli catalog convert`.
/// The loaded entry carries everything the writers need (labels,
/// cardinalities, estimator), so no graph is required.
Status SaveLoadedPathHistogram(const LoadedPathHistogram& loaded,
                               const std::string& path, CatalogFormat format);

/// \brief Reads an estimator from a stream, sniffing the format.
///
/// The reader slurps the stream to EOF before parsing (that is what makes
/// both the from_chars text cursor and the checksum walk fast), so the
/// histogram must be the stream's only content: any bytes after the end
/// are consumed, and a second ReadPathHistogram on the same stream sees an
/// empty stream. Streams carrying a binary catalog must have been opened
/// in binary mode.
Result<LoadedPathHistogram> ReadPathHistogram(std::istream* in);

/// \brief Loads an estimator from a file (either format, sniffed).
Result<LoadedPathHistogram> LoadPathHistogram(const std::string& path);

}  // namespace pathest

#endif  // PATHEST_CORE_SERIALIZE_H_
