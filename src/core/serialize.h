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
//   - BINARY catalog v2 (below) — the serving format: 64-byte aligned so
//     the daemon maps it and fixes up pointers instead of parsing
//     (core/mapped_catalog.h), and the format online maintenance
//     re-persists every entry in (maint/online_maintenance.h).
//
// EncodeCatalog writes any of the three; DecodeCatalog (LoadPathHistogram
// over a file) sniffs the leading magic and reads any of them, so every
// caller (CLI, catalog, benches) reads all three formats transparently.
//
// The two binary formats share one container — the header and section
// table below — and one parse of it and one assembler in serialize.cc
// (see core/serialize_internal.h). Four constants tell them apart:
//
//                          v1      v2
//   magic                  PESTB1  PESTB2
//   accepted versions      1       6
//   highest section id     5       4
//   section alignment      1       64
//
// ---------------------------------------------------------------------------
// Text format ("pathest-histogram v2"), line-oriented:
//   pathest-histogram v2
//   ordering <name>
//   type <histogram-type>
//   k <k>
//   labels <n> <name_1> ... <name_n>         # label id order
//   cardinalities <f_1> ... <f_n>            # for reconstructing rankings
//   buckets <beta>
//   <begin> <end> <sum>                      # beta lines, sums in hexfloat
// Only whitespace may follow the last bucket line.
// The reader also takes "pathest-histogram v1": its bucket lines add a
// <sumsq> column, checked finite and >= 0 like the sum, then dropped.
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
// Entries are sorted by ascending id; ids must be unique and known, and
// the extents must ascend in table order without overlapping (both
// formats). Payloads follow the table back to back, but readers MUST
// navigate via the table (offset/length), never by accumulation — that is
// what makes the layout extensible and each section independently
// verifiable.
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
//                    (column-major; v2 keeps begin and sum). The writer
//                    fills sumsq with 0.0; the reader checks it finite and
//                    >= 0, then drops it.
//   5 composition    u32 |L|, u32 k, u64 value-count, then for each
//                    m in [1, k] the row Count(sum, m) for
//                    sum in [m, m·|L|] — the sum-based ordering's stage-2
//                    CompositionTable. Present iff the ordering is of the
//                    sum family; verified on load against the table the
//                    rebuilt ordering holds (semantic integrity beyond the
//                    CRC).
//
// ---------------------------------------------------------------------------
// Binary catalog format v2 ("PESTB2") — the mmap serving format. Same
// 32-byte header and 24-byte section-table layout as v1 (only the magic
// byte '1' -> '2' and the version field differ), but the body is laid out
// for zero-copy consumption:
//
//   * 64 bytes (kArrayAlignBytes, one cache line) is the format's only
//     alignment rule. The writer packs the sections: the first starts at
//     AlignUp(header + table, 64), each later one at AlignUp(end of the
//     previous payload, 64), and the file ends at the last payload.
//   * Readers accept a section table only if every section OFFSET is a
//     multiple of 64 and the extents ascend in table (id) order without
//     overlapping; anything else is a typed section error at every verify
//     tier.
//   * INTER-section padding (the < 64 zero bytes between one payload's end
//     and the next section's aligned start) belongs to NO section: it is
//     outside every CRC and provably ignored by readers (payload lengths
//     are exact).
//   * Every interior ARRAY starts at a multiple of 64 relative to its
//     payload start, so with 64-aligned offsets the arrays are 64-aligned
//     in absolute file (and therefore mapping) addresses. This
//     INTRA-payload padding between a payload's prolog and its arrays is
//     INSIDE the payload, hence covered by the section CRC — a flip there
//     is detected.
//   * Bulk data travels as full little-endian u64 / IEEE-754-bit rows that
//     a mapped reader can point spans at with zero parsing.
//
// v2 section payloads (1-3 are byte-identical to v1):
//   4 histogram    u64 beta, u64 domain_size, then 64-aligned rows
//                  begin u64[beta] and sum f64[beta] (f64 = the IEEE-754
//                  bits): 16 bytes per bucket. There is no end row:
//                  bucket b ends at begin[b+1], the last bucket at
//                  domain_size. begin starts at 0, rises strictly and
//                  stays below domain_size; sum is finite and >= 0 (both
//                  checked from kChecksums up).
// A version-6 file has exactly these four sections for every ordering.
// In the golden (beta = 6), section 4 is 176 bytes at file offset 320:
// beta and domain_size at +0, begin at +64, sum at +128.
// The sum family's stage-2/3 tables are not stored: they are pure
// functions of (|L|, k), and every SumBasedOrdering takes them from the
// process-wide registry of ordering/sum_based.h (SumTables::For), shared
// with every other ordering of the same shape.
//
// The two rows are exactly a Histogram's (histogram/histogram.h): the
// lookup searches begin and divides the bucket's sum by its width. No row
// derived from another is stored, so constructing an Estimator from a
// mapped v2 file is pointer fixup plus, for the sum family, one registry
// lookup (core/mapped_catalog.h) — microseconds and O(1) allocations, with
// the row bytes faulted lazily by the kernel. The copying loader
// (DecodeCatalog) verifies at kChecksums and copies the two rows into an
// owned estimator.
//
// Versioning rules: the major version in the header is bumped on ANY
// layout change to existing sections, and each reader accepts exactly the
// version its writer emits (v1 1, v2 6); any other is a typed "unsupported
// format version" error at every entry point. New OPTIONAL sections may be
// added under new ids without a version bump only once readers skip
// unknown ids — today's readers do NOT (an id above the format's highest
// is an error), so writers must emit exactly the sections above.
// HistogramLayout(beta) is the one definition of the histogram layout.
//
// The committed golden catalogs (tests/golden/) pin these layouts
// byte-for-byte against accidental drift. The writers emit
// catalog_v2_version6.stats and catalog_v1_zero_sumsq.stats (re-pin with
// PATHEST_REGEN_GOLDEN=1 ./serialize_test). catalog_v1.stats, whose sumsq
// row holds the built sums of squares, is a compat fixture and never
// regenerated.
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
#include <string>
#include <string_view>
#include <vector>

#include "core/path_histogram.h"
#include "util/status.h"

namespace pathest {

/// \brief On-disk representation of a persisted estimator.
enum class CatalogFormat {
  kText,      // line-oriented, human-auditable (interchange/debug)
  kBinary,    // checksummed section-table binary v1 (copied on load)
  kBinaryV2,  // 64-byte aligned binary v2 (mmap zero-copy serving)
};

const char* CatalogFormatName(CatalogFormat format);
Result<CatalogFormat> ParseCatalogFormat(const std::string& name);

/// \brief How much of a binary catalog v2 to verify before serving it.
///
/// Every tier ALWAYS verifies the header, the section table (64-byte
/// aligned, ascending, non-overlapping extents), and the metadata sections
/// (ordering/labels/cardinalities, CRC + full parse) plus the histogram
/// section's shape prolog. The tiers differ in how the BULK bytes (the
/// histogram rows) are treated:
///
///   kTrusted   no bulk CRC, no scans — O(metadata) work, the fast-restart
///              mode. Safe ONLY for files this process (or its cache) has
///              already admitted at kChecksums or better: a flipped bulk
///              byte would serve wrong estimates undetected.
///   kChecksums CRC32C over the histogram section plus structural scans
///              of its rows (begins rising strictly below the domain
///              size, a finite non-negative sum row) — every check a
///              Histogram's rows need. The CatalogCache admission
///              tier (every byte generation is checked once), and what
///              `catalog verify` and the copying loader use.
enum class CatalogVerify {
  kTrusted,
  kChecksums,
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
/// The one v2 version, written and read: sections 1-4 only, the histogram
/// as its begin and sum rows.
inline constexpr uint32_t kVersionV2 = 6;
inline constexpr size_t kHeaderBytes = 32;
inline constexpr size_t kSectionEntryBytes = 24;
/// Hard ceiling on the section count a reader will consider; anything
/// larger is a forged header.
inline constexpr uint32_t kMaxSections = 64;

/// v2's one alignment rule: section offsets and interior arrays (relative
/// to their payload start) are 64-byte multiples, so every row is 64-byte
/// aligned in absolute mapped addresses too.
inline constexpr uint64_t kArrayAlignBytes = 64;

enum SectionId : uint32_t {
  kSectionOrdering = 1,
  kSectionLabels = 2,
  kSectionCardinalities = 3,
  kSectionHistogram = 4,
  kSectionComposition = 5,  // v1 only
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
  uint64_t begin_off, sum_off;  // 8 bytes x beta each
  uint64_t payload_bytes;
};
HistogramLayoutV2 HistogramLayout(uint64_t beta);

}  // namespace binfmt

/// \brief True when `ordering_name` can be reconstructed from label
/// cardinalities alone (no O(|L_k|) state).
bool IsSerializableOrdering(const std::string& ordering_name);

/// \brief Serializes the estimator into `*out` in `format`: text, binary
/// catalog v1, or binary catalog v2 version 6 (sections packed on 64-byte
/// boundaries; the begin and sum rows — see the format spec above).
/// InvalidArgument when the ordering is not serializable or `labels` and
/// `cardinalities` differ in size.
Status EncodeCatalog(const PathHistogram& estimator,
                     const LabelDictionary& labels,
                     const std::vector<uint64_t>& cardinalities,
                     CatalogFormat format, std::string* out);

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

/// \brief The one magic classifier: binary v2, binary v1, or — for
/// anything without a binary magic, input shorter than a magic included —
/// text. When `version` is non-null it receives a binary catalog's header
/// version field (unauthenticated: 0 if `bytes` is shorter than the field)
/// and 0 for text. Behind DecodeCatalog's dispatch and `catalog verify`'s
/// per-entry format report.
CatalogFormat SniffCatalogFormat(std::string_view bytes,
                                 uint32_t* version = nullptr);

/// \brief SniffCatalogFormat over the leading bytes of the file at `path`
/// (no slurp): the serving loader's mmap-or-copy dispatch and `catalog
/// convert`'s skip-if-current check. NotFound/IOError propagate. Its own
/// name keeps a std::string of catalog bytes from binding to it.
Result<CatalogFormat> SniffCatalogFile(const std::string& path,
                                       uint32_t* version = nullptr);

/// \brief Whether `path` is a binary catalog v2, by SniffCatalogFile.
/// Kept for perfbench, whose serve workloads call it; library code
/// dispatches on SniffCatalogFile.
Result<bool> SniffFileIsBinaryV2(const std::string& path);

/// \brief Parses a catalog in the format its leading magic names (text
/// for anything without a binary magic) at the strictest check each format
/// has — every checksum before the section it covers is interpreted, and
/// for v2 CatalogVerify::kChecksums — and returns an OWNED estimator. A v2
/// buffer must be at least 8-byte aligned (heap buffers always are).
Result<LoadedPathHistogram> DecodeCatalog(std::string_view bytes);

/// \brief Re-serializes an already-loaded estimator to `path` in `format`
/// through an atomic write — the engine of `pathest_cli catalog convert`.
/// The loaded entry carries everything the writers need (labels,
/// cardinalities, estimator), so no graph is required.
Status SaveLoadedPathHistogram(const LoadedPathHistogram& loaded,
                               const std::string& path, CatalogFormat format);

/// \brief Loads an estimator from a file: DecodeCatalog over its bytes.
Result<LoadedPathHistogram> LoadPathHistogram(const std::string& path);

}  // namespace pathest

#endif  // PATHEST_CORE_SERIALIZE_H_
