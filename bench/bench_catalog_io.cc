// bench_catalog_io: load-time comparison of the three on-disk catalog
// formats (core/serialize.h) at serving scale — a β≈28k estimator over
// |L_3| = 30783 paths (31 labels, lengths 1..3), the catalog size the
// paper's full-graph analyses produce. The text format pays hexfloat
// parsing per bucket row; the binary v1 format pays CRC32C sweeps and then
// reinterprets the column-major u64 rows directly; the binary v2 (sections
// packed on 64-byte boundaries) is additionally mmap-servable:
// MappedCatalogEntry construction is header validation + pointer fixup
// (microseconds, no row copies), with the CRC sweep optional per verify
// tier and the row bytes faulted lazily.
//
// The sum-based ordering's stage-2/3 tables come from a process-wide
// registry shared by every ordering of a shape (SumTables in
// ordering/sum_based.h), so a load costs more when no ordering of the
// shape is alive (a COLD registry: the load builds the tables) than when
// one is (WARM: it shares them). The copying loads (text, binary, v2 copy)
// are timed cold — the whole cost of a load, as in a fresh process. The
// mapped opens are timed both ways: v2_mmap_cold_us is the first open of
// the shape, and the other mapped rows are warm, which is what a serving
// cache pays to re-open an entry while the shape is in use.
// The bench asserts the warm zero-copy construction stays >= 50x faster
// than the v1 copying load, and that every path serves bit-identically.
//
// The estimator is synthetic (deterministic fabricated rows assembled
// through the same Histogram::FromRows/FromParts path deserialization
// uses), so
// the bench needs no graph build and isolates pure load cost. Before
// timing, both files are loaded once and their estimates compared
// bit-exactly over the full domain — a speedup over a WRONG loader is not
// a result.
//
// PATHEST_SCALE scales β (default 1.0 → β=27993), PATHEST_REPS the
// best-of repetition count (default 5). --json[=path] writes one JSON
// object (default BENCH_catalog_io.json) with the sizes (v2 also as
// section payload bytes and file bytes per bucket), best times, and the
// binary-over-text speedup.

#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/catalog_cache.h"
#include "core/mapped_catalog.h"
#include "core/serialize.h"
#include "histogram/histogram.h"
#include "ordering/factory.h"
#include "ordering/sum_based.h"
#include "path/path_space.h"
#include "util/safe_io.h"
#include "util/timer.h"

namespace pathest {
namespace {

// Deterministic per-bucket representative value (no RNG: reproducible
// bytes make the bench a fixture, not a flake).
double BucketValue(uint64_t i) {
  return static_cast<double>((i * 2654435761ull) % 1000u + 1u);
}

PathHistogram BuildSyntheticEstimator(size_t num_labels, size_t k,
                                      size_t beta, LabelDictionary* labels,
                                      std::vector<uint64_t>* cards) {
  for (size_t l = 0; l < num_labels; ++l) {
    labels->Intern("l" + std::to_string(l));
    cards->push_back(100 + 37 * l);
  }
  PathSpace space(num_labels, k);
  const uint64_t domain = space.size();
  PATHEST_CHECK(beta >= 2 && beta <= domain, "beta out of range");

  // Contiguous cover of [0, domain) at any beta: the first domain % beta
  // buckets have width domain / beta + 1, the rest width domain / beta
  // (for beta >= domain / 2: widths 2 and 1).
  std::vector<uint64_t> begins(beta);
  std::vector<double> sums(beta);
  const uint64_t narrow = domain / beta;
  const uint64_t wide = domain % beta;
  uint64_t begin = 0;
  for (uint64_t i = 0; i < beta; ++i) {
    const uint64_t width = i < wide ? narrow + 1 : narrow;
    const double v = BucketValue(i);
    begins[i] = begin;
    sums[i] = static_cast<double>(width) * v;
    begin += width;
  }
  Histogram histogram =
      Histogram::FromRows(domain, std::move(begins), std::move(sums));
  auto ordering = MakeOrderingFromStats("sum-based", *labels, *cards, k);
  bench::DieIf(ordering.status(), "MakeOrderingFromStats");
  auto est = PathHistogram::FromParts(std::move(*ordering),
                                      std::move(histogram),
                                      HistogramType::kVOptimal);
  bench::DieIf(est.status(), "FromParts");
  return std::move(*est);
}

double BestLoadMillis(const std::string& path, size_t reps) {
  double best = 1e300;
  for (size_t r = 0; r < reps; ++r) {
    Timer timer;
    auto loaded = LoadPathHistogram(path);
    const double ms = timer.ElapsedMillis();
    bench::DieIf(loaded.status(), "LoadPathHistogram");
    if (ms < best) best = ms;
  }
  return best;
}

// Best-of mmap zero-copy construction: map + parse + pointer fixup, no
// row copies. Returns microseconds — the v2 headline is in a different
// unit class than the millisecond loads above.
double BestMmapConstructMicros(const std::string& path, CatalogVerify verify,
                               size_t reps) {
  double best = 1e300;
  for (size_t r = 0; r < reps; ++r) {
    Timer timer;
    auto mapped = MappedCatalogEntry::Open(path, verify);
    const double us = static_cast<double>(timer.ElapsedNanos()) / 1000.0;
    bench::DieIf(mapped.status(), "MappedCatalogEntry::Open");
    if (us < best) best = us;
  }
  return best;
}

int Run(bool json_mode, const std::string& json_path) {
  const size_t k = 3;
  const size_t num_labels = 31;
  const double scale = ScaleFromEnv();
  const uint64_t domain = PathSpace(num_labels, k).size();
  size_t beta = static_cast<size_t>(27993 * scale);
  if (beta < 2) beta = 2;
  if (beta > domain) beta = static_cast<size_t>(domain);
  const size_t reps = bench::SizeFromEnv("PATHEST_REPS", 5);

  LabelDictionary labels;
  std::vector<uint64_t> cards;
  // Dropped before the timings: it holds an ordering of the shape, and the
  // cold rows need the registry empty.
  std::optional<PathHistogram> est =
      BuildSyntheticEstimator(num_labels, k, beta, &labels, &cards);
  std::printf("catalog: %s, beta=%zu over |L_%zu|=%llu\n",
              est->Describe().c_str(), beta, k,
              static_cast<unsigned long long>(domain));

  const std::string dir = "/tmp";
  const std::string text_path = dir + "/pathest_bench_catalog.text.stats";
  const std::string bin_path = dir + "/pathest_bench_catalog.bin.stats";
  std::string text;
  bench::DieIf(EncodeCatalog(*est, labels, cards, CatalogFormat::kText, &text),
               "write text");
  bench::DieIf(AtomicWriteFile(text_path, text), "save text");
  std::string binary;
  bench::DieIf(
      EncodeCatalog(*est, labels, cards, CatalogFormat::kBinary, &binary),
      "write binary");
  bench::DieIf(AtomicWriteFile(bin_path, binary), "save binary");
  const std::string v2_path = dir + "/pathest_bench_catalog.v2.stats";
  std::string v2;
  bench::DieIf(
      EncodeCatalog(*est, labels, cards, CatalogFormat::kBinaryV2, &v2),
      "write binary v2");
  bench::DieIf(AtomicWriteFile(v2_path, v2), "save binary v2");
  // What the sections themselves hold (the sum of the section-table
  // lengths); the rest of v2_bytes is the header, the table and the < 64
  // bytes of inter-section padding in front of each section.
  uint32_t section_count = 0;
  std::memcpy(&section_count, v2.data() + 12, 4);
  uint64_t v2_payload_bytes = 0;
  for (uint32_t i = 0; i < section_count; ++i) {
    uint64_t length = 0;
    std::memcpy(&length,
                v2.data() + binfmt::kHeaderBytes +
                    i * binfmt::kSectionEntryBytes + 16,
                8);
    v2_payload_bytes += length;
  }
  const double v2_bytes_per_bucket =
      static_cast<double>(v2.size()) / static_cast<double>(beta);
  std::printf("text=%zu bytes, binary=%zu bytes, binary-v2=%zu bytes "
              "(%llu payload, %.2f bytes/bucket)\n",
              text.size(), binary.size(), v2.size(),
              static_cast<unsigned long long>(v2_payload_bytes),
              v2_bytes_per_bucket);

  // Correctness gate before any timing: every load must reproduce the
  // original estimator bit-exactly over the whole domain.
  PathSpace space(num_labels, k);
  RankScratch scratch;
  {
    auto from_text = LoadPathHistogram(text_path);
    auto from_bin = LoadPathHistogram(bin_path);
    auto from_v2 = LoadPathHistogram(v2_path);
    auto from_mmap = MappedCatalogEntry::Open(v2_path, CatalogVerify::kChecksums);
    bench::DieIf(from_text.status(), "load text");
    bench::DieIf(from_bin.status(), "load binary");
    bench::DieIf(from_v2.status(), "load binary v2");
    bench::DieIf(from_mmap.status(), "mmap binary v2");
    size_t mismatches = 0;
    space.ForEach([&](const LabelPath& p) {
      const double want = est->Estimate(p);
      if (from_text->estimator.Estimate(p) != want ||
          from_bin->estimator.Estimate(p) != want ||
          from_v2->estimator.Estimate(p) != want ||
          (*from_mmap)->estimator().Estimate(p, scratch) != want) {
        ++mismatches;
      }
    });
    if (mismatches != 0) {
      std::fprintf(stderr, "FORMAT MISMATCH on %zu paths\n", mismatches);
      return 1;
    }
  }
  std::printf("cross-format identity (incl. mmap): OK over all %llu paths\n",
              static_cast<unsigned long long>(domain));
  LabelPath probe;
  probe.PushBack(0);
  const double probe_want = est->Estimate(probe);
  est.reset();  // the registry now holds no ordering of the shape

  const double text_ms = BestLoadMillis(text_path, reps);
  const double binary_ms = BestLoadMillis(bin_path, reps);
  const double speedup = text_ms / binary_ms;
  std::printf("load (best of %zu): text=%.3fms binary=%.3fms  "
              "binary speedup=%.2fx\n",
              reps, text_ms, binary_ms, speedup);

  // v2 rows: the copying load (kChecksums plus a row copy) and the first
  // mapped open of the shape, both cold; then, with
  // the shape's tables pinned, the zero-copy constructions at the trusted
  // and checksummed tiers, the first estimate straight after mapping
  // (faults the pages the query touches), and a cache re-pin of an
  // unchanged file.
  const double v2_copy_ms = BestLoadMillis(v2_path, reps);
  const double v2_mmap_cold_us =
      BestMmapConstructMicros(v2_path, CatalogVerify::kTrusted, reps);
  const std::shared_ptr<const SumTables> warm =
      SumTables::For(num_labels, k);
  const double v2_mmap_construct_us =
      BestMmapConstructMicros(v2_path, CatalogVerify::kTrusted, reps);
  const double v2_mmap_verified_us =
      BestMmapConstructMicros(v2_path, CatalogVerify::kChecksums, reps);
  double v2_first_estimate_us = 1e300;
  for (size_t r = 0; r < reps; ++r) {
    auto mapped = MappedCatalogEntry::Open(v2_path, CatalogVerify::kTrusted);
    bench::DieIf(mapped.status(), "mmap for first-estimate");
    Timer timer;
    const double got = (*mapped)->estimator().Estimate(probe, scratch);
    const double us = static_cast<double>(timer.ElapsedNanos()) / 1000.0;
    if (got != probe_want) {
      std::fprintf(stderr, "FIRST-ESTIMATE MISMATCH\n");
      return 1;
    }
    if (us < v2_first_estimate_us) v2_first_estimate_us = us;
  }
  double v2_repin_us = 1e300;
  {
    CatalogCache cache;
    auto first = cache.GetOrOpen(v2_path);
    bench::DieIf(first.status(), "cache prime");
    for (size_t r = 0; r < reps; ++r) {
      Timer timer;
      auto again = cache.GetOrOpen(v2_path);
      const double us = static_cast<double>(timer.ElapsedNanos()) / 1000.0;
      bench::DieIf(again.status(), "cache re-pin");
      if (us < v2_repin_us) v2_repin_us = us;
    }
  }
  const double mmap_speedup = binary_ms * 1000.0 / v2_mmap_construct_us;
  std::printf("v2 (best of %zu): copy=%.3fms mmap-cold=%.1fus "
              "mmap-construct=%.1fus mmap-verified=%.1fus "
              "first-estimate=%.2fus repin=%.2fus  "
              "mmap speedup over v1 copy=%.0fx\n",
              reps, v2_copy_ms, v2_mmap_cold_us, v2_mmap_construct_us,
              v2_mmap_verified_us, v2_first_estimate_us, v2_repin_us,
              mmap_speedup);
  // The acceptance floor of the zero-copy path is part of the bench: a
  // regression that drags construction back toward a copying load fails
  // loudly instead of quietly shipping a slower number.
  if (mmap_speedup < 50.0) {
    std::fprintf(stderr,
                 "MMAP SPEEDUP REGRESSION: %.1fx < 50x floor "
                 "(construct=%.1fus vs v1 copy=%.3fms)\n",
                 mmap_speedup, v2_mmap_construct_us, binary_ms);
    return 1;
  }

  std::remove(text_path.c_str());
  std::remove(bin_path.c_str());
  std::remove(v2_path.c_str());

  if (!json_mode) return 0;
  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"catalog_io\",\n"
               "  \"k\": %zu,\n"
               "  \"num_labels\": %zu,\n"
               "  \"domain\": %llu,\n"
               "  \"beta\": %zu,\n"
               "  \"reps\": %zu,\n"
               "  \"text_bytes\": %zu,\n"
               "  \"binary_bytes\": %zu,\n"
               "  \"text_ms\": %.4f,\n"
               "  \"binary_ms\": %.4f,\n"
               "  \"speedup\": %.3f,\n"
               "  \"v2_bytes\": %zu,\n"
               "  \"v2_payload_bytes\": %llu,\n"
               "  \"v2_bytes_per_bucket\": %.2f,\n"
               "  \"v2_copy_ms\": %.4f,\n"
               "  \"v2_mmap_cold_us\": %.2f,\n"
               "  \"v2_mmap_construct_us\": %.2f,\n"
               "  \"v2_mmap_verified_us\": %.2f,\n"
               "  \"v2_first_estimate_us\": %.2f,\n"
               "  \"v2_repin_us\": %.2f,\n"
               "  \"mmap_speedup\": %.1f\n"
               "}\n",
               k, num_labels, static_cast<unsigned long long>(domain), beta,
               reps, text.size(), binary.size(), text_ms, binary_ms,
               speedup, v2.size(),
               static_cast<unsigned long long>(v2_payload_bytes),
               v2_bytes_per_bucket, v2_copy_ms, v2_mmap_cold_us,
               v2_mmap_construct_us,
               v2_mmap_verified_us, v2_first_estimate_us, v2_repin_us,
               mmap_speedup);
  std::fclose(out);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace pathest

int main(int argc, char** argv) {
  bool json_mode = false;
  std::string json_path = "BENCH_catalog_io.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json_mode = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_mode = true;
      json_path = arg.substr(7);
    }
  }
  return pathest::Run(json_mode, json_path);
}
