// Microbenchmark M4: the query-time serving path — legacy virtual
// estimation (PathHistogram::Estimate: virtual Rank + binary search over the
// 32-byte diagnostic Bucket array) versus the serving fast path
// (core/estimator.h: type-tagged scratch Rank + flat SoA bucket lookup),
// plus batched-serving throughput.
//
// Setup mirrors the paper's Table 4 shape without the exact-selectivity
// pipeline: a moreno-shaped label set (6 labels, skewed cardinalities) at
// k = 6 (|L_6| = 55 986), a synthetic zipf frequency sequence over the
// domain, ONE v-optimal histogram at beta = n/128 (Table 4's smallest
// sweep level) shared by every ordering via PathHistogram::FromParts, and a
// uniformly sampled query workload.
//
// Per ordering it reports, best of PATHEST_REPS interleaved runs:
//   * legacy_ns / fast_ns — ns per single-path estimate on each path, with
//     bit-identity of every estimate asserted before timing;
//   * p50_ns / p99_ns    — fast-path latency distribution over 256-query
//     chunks (per-query clock reads would dwarf the ~100ns queries);
//   * batch1_mqps / batchN_mqps — EstimateBatch / EstimateBatchParallel
//     throughput in million paths/sec at 1 and hardware threads, with the
//     parallel output asserted bit-identical to the serial one.
//
// --json[=path] writes one object per ordering (default
// BENCH_estimation.json). Knobs: PATHEST_SCALE (workload size),
// PATHEST_REPS (default 5), PATHEST_K, PATHEST_BETA (bucket override),
// PATHEST_THREADS (parallel-batch workers, 0 = hardware).

#include <algorithm>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/estimator.h"
#include "core/path_histogram.h"
#include "core/report.h"
#include "engine/thread_pool.h"
#include "gen/datasets.h"
#include "histogram/builders.h"
#include "ordering/factory.h"
#include "util/random.h"
#include "util/timer.h"

namespace pathest {
namespace {

constexpr size_t kChunk = 256;  // queries per latency sample

std::vector<uint64_t> SyntheticZipfDistribution(size_t n, uint64_t seed) {
  std::vector<uint64_t> data(n, 0);
  Rng rng(seed);
  ZipfDistribution zipf(n, 1.0);
  const size_t samples = 20 * n;
  for (size_t i = 0; i < samples; ++i) ++data[zipf.Sample(&rng)];
  return data;
}

struct Row {
  std::string ordering;
  size_t beta = 0;
  uint64_t n = 0;
  size_t queries = 0;
  double legacy_ns = 0.0;
  double fast_ns = 0.0;
  double speedup = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double batch1_mqps = 0.0;
  double batchn_mqps = 0.0;
  size_t threads = 1;
  size_t resident_bytes = 0;
};

Row MeasureOrdering(const Graph& graph, const std::string& name, size_t k,
                    const Histogram& histogram,
                    const std::vector<LabelPath>& workload, size_t reps,
                    size_t batch_threads) {
  auto ordering = MakeOrdering(name, graph, k);
  bench::DieIf(ordering.status(), "ordering build");
  auto legacy = PathHistogram::FromParts(std::move(*ordering), histogram,
                                         HistogramType::kVOptimal);
  bench::DieIf(legacy.status(), "PathHistogram::FromParts");
  const Estimator estimator(*legacy);

  Row row;
  row.ordering = legacy->ordering().name();
  row.beta = histogram.num_buckets();
  row.n = histogram.domain_size();
  row.queries = workload.size();
  row.threads = batch_threads;
  row.resident_bytes = estimator.ResidentBytes();

  // Identity first: the fast path must be a pure speedup. Serial batch,
  // parallel batch, and per-path fast estimates must all match the legacy
  // estimate bit for bit.
  std::vector<double> expect(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    expect[i] = legacy->Estimate(workload[i]);
  }
  {
    RankScratch scratch;
    std::vector<double> got(workload.size());
    estimator.EstimateBatch(workload, got);
    std::vector<double> got_par(workload.size());
    estimator.EstimateBatchParallel(workload, got_par, batch_threads);
    for (size_t i = 0; i < workload.size(); ++i) {
      if (expect[i] != got[i] || expect[i] != got_par[i] ||
          expect[i] != estimator.Estimate(workload[i], scratch)) {
        std::fprintf(stderr, "fast/legacy estimate mismatch: %s query %zu\n",
                     row.ordering.c_str(), i);
        std::exit(1);
      }
    }
  }

  std::vector<double> chunk_ns;
  chunk_ns.reserve(reps * (workload.size() / kChunk + 1));
  double sink = 0.0;
  // Interleave the two sides' reps so machine jitter drifts into both
  // minima equally instead of biasing whichever block ran second.
  for (size_t rep = 0; rep < reps; ++rep) {
    {
      Timer timer;
      for (const LabelPath& path : workload) sink += legacy->Estimate(path);
      const double ns = static_cast<double>(timer.ElapsedNanos()) /
                        static_cast<double>(workload.size());
      if (rep == 0 || ns < row.legacy_ns) row.legacy_ns = ns;
    }
    {
      RankScratch scratch;
      scratch.Reserve(graph.num_labels());
      Timer total;
      for (size_t begin = 0; begin < workload.size(); begin += kChunk) {
        const size_t end = std::min(begin + kChunk, workload.size());
        Timer chunk;
        for (size_t i = begin; i < end; ++i) {
          sink += estimator.Estimate(workload[i], scratch);
        }
        chunk_ns.push_back(static_cast<double>(chunk.ElapsedNanos()) /
                           static_cast<double>(end - begin));
      }
      const double ns = static_cast<double>(total.ElapsedNanos()) /
                        static_cast<double>(workload.size());
      if (rep == 0 || ns < row.fast_ns) row.fast_ns = ns;
    }
    {
      std::vector<double> out(workload.size());
      Timer timer;
      estimator.EstimateBatch(workload, out);
      const double mqps = static_cast<double>(workload.size()) * 1e3 /
                          static_cast<double>(timer.ElapsedNanos());
      if (mqps > row.batch1_mqps) row.batch1_mqps = mqps;
      sink += out[0];
    }
    {
      std::vector<double> out(workload.size());
      Timer timer;
      estimator.EstimateBatchParallel(workload, out, batch_threads);
      const double mqps = static_cast<double>(workload.size()) * 1e3 /
                          static_cast<double>(timer.ElapsedNanos());
      if (mqps > row.batchn_mqps) row.batchn_mqps = mqps;
      sink += out[0];
    }
  }
  row.speedup = row.fast_ns > 0.0 ? row.legacy_ns / row.fast_ns : 0.0;
  row.p50_ns = bench::Percentile(&chunk_ns, 0.50);
  row.p99_ns = bench::Percentile(&chunk_ns, 0.99);
  if (sink == -1.0) row.queries += 1;  // defeat dead-code elimination
  return row;
}

int Run(bool json_mode, const std::string& json_path) {
  const double scale = ScaleFromEnv();
  const size_t reps = bench::SizeFromEnv("PATHEST_REPS", 5);
  const size_t k = bench::SizeFromEnv("PATHEST_K", 6);
  const size_t batch_threads = bench::ThreadsFromEnv();
  const size_t resolved_threads =
      batch_threads == 0 ? ThreadPool::DefaultThreads() : batch_threads;

  Graph graph = bench::BuildBenchDataset(DatasetId::kMorenoHealth, 42);
  PathSpace space(graph.num_labels(), k);
  const uint64_t n = space.size();
  const size_t beta = bench::SizeFromEnv(
      "PATHEST_BETA", std::max<size_t>(2, static_cast<size_t>(n / 128)));

  std::vector<uint64_t> dist = SyntheticZipfDistribution(n, 42);
  auto histogram = BuildHistogram(HistogramType::kVOptimal, dist, beta);
  bench::DieIf(histogram.status(), "v-optimal build");

  const size_t num_queries = std::max<size_t>(
      1024, static_cast<size_t>(200000.0 * scale));
  Rng rng(7);
  std::vector<LabelPath> workload;
  workload.reserve(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    workload.push_back(space.CanonicalPath(rng.NextBounded(n)));
  }

  std::printf("estimation serving path: |L|=%zu k=%zu |L_k|=%llu beta=%zu, "
              "%zu queries, best of %zu reps, batch threads %zu\n\n",
              graph.num_labels(), k, static_cast<unsigned long long>(n), beta,
              num_queries, reps, resolved_threads);

  std::vector<std::string> orderings = PaperOrderingNames();
  orderings.push_back("gray-card");
  orderings.push_back("random");

  std::vector<Row> rows;
  ReportTable table({"ordering", "legacy_ns", "fast_ns", "speedup", "p50_ns",
                     "p99_ns", "batch1_mqps", "batchN_mqps", "est_bytes"});
  for (const std::string& name : orderings) {
    Row row = MeasureOrdering(graph, name, k, *histogram, workload, reps,
                              batch_threads);
    row.threads = resolved_threads;
    std::printf("  %-10s legacy=%7.1fns fast=%7.1fns speedup=%5.2fx "
                "p50=%7.1fns p99=%7.1fns batch1=%6.2fMq/s batchN=%6.2fMq/s\n",
                row.ordering.c_str(), row.legacy_ns, row.fast_ns, row.speedup,
                row.p50_ns, row.p99_ns, row.batch1_mqps, row.batchn_mqps);
    std::fflush(stdout);
    table.AddRow({row.ordering, FormatDouble(row.legacy_ns, 1),
                  FormatDouble(row.fast_ns, 1), FormatDouble(row.speedup, 2),
                  FormatDouble(row.p50_ns, 1), FormatDouble(row.p99_ns, 1),
                  FormatDouble(row.batch1_mqps, 2),
                  FormatDouble(row.batchn_mqps, 2),
                  std::to_string(row.resident_bytes)});
    rows.push_back(std::move(row));
  }
  std::printf("\n%s\n", table.ToString().c_str());

  if (json_mode) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out, "[\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(
          out,
          "  {\"ordering\": \"%s\", \"beta\": %zu, \"n\": %llu, "
          "\"queries\": %zu, \"legacy_ns\": %.1f, \"fast_ns\": %.1f, "
          "\"speedup\": %.2f, \"p50_ns\": %.1f, \"p99_ns\": %.1f, "
          "\"batch1_mqps\": %.2f, \"batchN_mqps\": %.2f, \"threads\": %zu, "
          "\"est_bytes\": %zu}%s\n",
          r.ordering.c_str(), r.beta, static_cast<unsigned long long>(r.n),
          r.queries, r.legacy_ns, r.fast_ns, r.speedup, r.p50_ns, r.p99_ns,
          r.batch1_mqps, r.batchn_mqps, r.threads, r.resident_bytes,
          i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "]\n");
    std::fclose(out);
    std::printf("wrote %zu rows to %s\n", rows.size(), json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace pathest

int main(int argc, char** argv) {
  bool json_mode = false;
  std::string json_path = "BENCH_estimation.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json_mode = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_mode = true;
      json_path = arg.substr(7);
    } else {
      std::fprintf(stderr, "usage: %s [--json[=path]]\n", argv[0]);
      return 2;
    }
  }
  return pathest::Run(json_mode, json_path);
}
