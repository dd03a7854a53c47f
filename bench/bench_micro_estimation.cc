// Microbenchmark M4: the query-time serving path — the reference
// estimate (PathHistogram::Estimate: virtual Rank + the histogram's bucket
// lookup) versus the serving fast path (core/estimator.h: type-tagged
// scratch Rank + the same lookup over the same rows), plus serial batch
// throughput. The two differ only in how they rank.
//
// Setup mirrors the paper's Table 4 shape without the exact-selectivity
// pipeline: a moreno-shaped label set (6 labels, skewed cardinalities) at
// k = 6 (|L_6| = 55 986), a synthetic zipf frequency sequence over the
// domain, ONE v-optimal histogram at beta = n/128 (Table 4's smallest
// sweep level) shared by every ordering via PathHistogram::FromParts, and a
// uniformly sampled query workload.
//
// Per ordering it reports, best of PATHEST_REPS interleaved runs:
//   * reference_ns / fast_ns — ns per single-path estimate on each path,
//     with bit-identity of every estimate asserted before timing;
//   * p50_ns / p99_ns    — fast-path latency distribution over 256-query
//     chunks (per-query clock reads would dwarf the ~100ns queries);
//   * batch1_mqps        — EstimateBatch throughput in million paths/sec.
//
// Then one lookup row per β in {64, 874, |L_k|/2}: the bucket lookup
// alone (Histogram::EstimatePoint), over an equi-width histogram of the
// same distribution and 1 Mi uniform random domain indices (scaled by
// PATHEST_SCALE, at least 16 Ki). It reports medians with p25/p75 over
// the reps:
//   * lookup_ns — ns per lookup over independent indices (throughput:
//     lookups overlap in the pipeline);
//   * lookup_chain_ns — ns per lookup when each index depends on the
//     previous answer (latency: no overlap).
// Every row carries hardware_cores, the host's core count.
//
// --json[=path] writes one object per ordering, then one per lookup β
// (default BENCH_estimation.json). Knobs: PATHEST_SCALE (workload size),
// PATHEST_REPS (default 5), PATHEST_K, PATHEST_BETA (bucket override for
// the ordering rows).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/estimator.h"
#include "core/path_histogram.h"
#include "core/report.h"
#include "gen/datasets.h"
#include "histogram/builders.h"
#include "histogram/histogram.h"
#include "ordering/factory.h"
#include "util/random.h"
#include "util/timer.h"

namespace pathest {
namespace {

constexpr size_t kChunk = 256;  // queries per latency sample

// `value` with `decimals` fixed decimals for the summary table
// (FormatDouble is %g with significant digits: 41.3 at 1 prints "4e+01").
std::string Fixed(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

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
  double reference_ns = 0.0;
  double fast_ns = 0.0;
  double speedup = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double batch1_mqps = 0.0;
  size_t resident_bytes = 0;
};

Row MeasureOrdering(const Graph& graph, const std::string& name, size_t k,
                    const Histogram& histogram,
                    const std::vector<LabelPath>& workload, size_t reps) {
  auto ordering = MakeOrdering(name, graph, k);
  bench::DieIf(ordering.status(), "ordering build");
  auto reference = PathHistogram::FromParts(std::move(*ordering), histogram,
                                            HistogramType::kVOptimal);
  bench::DieIf(reference.status(), "PathHistogram::FromParts");
  const Estimator estimator(*reference);

  Row row;
  row.ordering = reference->ordering().name();
  row.beta = histogram.num_buckets();
  row.n = histogram.domain_size();
  row.queries = workload.size();
  row.resident_bytes = estimator.ResidentBytes();

  // Identity first: the fast path must be a pure speedup. The serial batch
  // and per-path fast estimates must match the reference bit for bit.
  std::vector<double> expect(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    expect[i] = reference->Estimate(workload[i]);
  }
  {
    RankScratch scratch;
    std::vector<double> got(workload.size());
    estimator.EstimateBatch(workload, got);
    for (size_t i = 0; i < workload.size(); ++i) {
      if (expect[i] != got[i] ||
          expect[i] != estimator.Estimate(workload[i], scratch)) {
        std::fprintf(stderr,
                     "fast/reference estimate mismatch: %s query %zu\n",
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
      for (const LabelPath& path : workload) {
        sink += reference->Estimate(path);
      }
      const double ns = static_cast<double>(timer.ElapsedNanos()) /
                        static_cast<double>(workload.size());
      if (rep == 0 || ns < row.reference_ns) row.reference_ns = ns;
    }
    {
      RankScratch scratch;
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
  }
  row.speedup = row.fast_ns > 0.0 ? row.reference_ns / row.fast_ns : 0.0;
  row.p50_ns = bench::Percentile(&chunk_ns, 0.50);
  row.p99_ns = bench::Percentile(&chunk_ns, 0.99);
  if (sink == -1.0) row.queries += 1;  // defeat dead-code elimination
  return row;
}

struct LookupRow {
  size_t beta = 0;
  uint64_t n = 0;
  size_t probes = 0;
  // Median, p25, p75 over the reps.
  double lookup_ns[3] = {};
  double lookup_chain_ns[3] = {};
};

void Quartiles(std::vector<double>* samples, double out[3]) {
  out[0] = bench::Percentile(samples, 0.50);
  out[1] = bench::Percentile(samples, 0.25);
  out[2] = bench::Percentile(samples, 0.75);
}

LookupRow MeasureLookup(const std::vector<uint64_t>& dist, size_t beta,
                        size_t num_probes, size_t reps) {
  auto histogram = BuildHistogram(HistogramType::kEquiWidth, dist, beta);
  bench::DieIf(histogram.status(), "equi-width build");
  const Histogram& h = *histogram;
  const uint64_t n = h.domain_size();

  LookupRow row;
  row.beta = h.num_buckets();
  row.n = n;
  row.probes = num_probes;
  Rng rng(11);
  std::vector<uint64_t> probes(num_probes);
  for (uint64_t& i : probes) i = rng.NextBounded(n);

  std::vector<double> samples[2];
  double sink = 0.0;
  for (size_t rep = 0; rep < reps; ++rep) {
    // Independent lookups: the sum is the only dependency between them.
    {
      Timer timer;
      for (uint64_t i : probes) sink += h.EstimatePoint(i);
      samples[0].push_back(static_cast<double>(timer.ElapsedNanos()) /
                           static_cast<double>(num_probes));
    }
    // Chained lookups: the next index waits for this answer. Estimates
    // are non-negative, so the sign test is always false but the compiler
    // must still wait for the load.
    {
      uint64_t carry = 0;
      Timer timer;
      for (uint64_t i : probes) {
        const uint64_t index = i ^ carry;
        carry = h.EstimatePoint(index < n ? index : i) < 0.0 ? 1 : 0;
      }
      samples[1].push_back(static_cast<double>(timer.ElapsedNanos()) /
                           static_cast<double>(num_probes));
      sink += static_cast<double>(carry);
    }
  }
  Quartiles(&samples[0], row.lookup_ns);
  Quartiles(&samples[1], row.lookup_chain_ns);
  if (sink == -1.0) row.probes += 1;  // defeat dead-code elimination
  return row;
}

int Run(bool json_mode, const std::string& json_path) {
  const double scale = ScaleFromEnv();
  const size_t reps = bench::SizeFromEnv("PATHEST_REPS", 5);
  const size_t k = bench::SizeFromEnv("PATHEST_K", 6);
  const size_t cores = std::thread::hardware_concurrency();

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
              "%zu queries, best of %zu reps, %zu hardware cores\n\n",
              graph.num_labels(), k, static_cast<unsigned long long>(n), beta,
              num_queries, reps, cores);

  std::vector<std::string> orderings = PaperOrderingNames();
  orderings.push_back("gray-card");
  orderings.push_back("random");

  std::vector<Row> rows;
  ReportTable table({"ordering", "reference_ns", "fast_ns", "speedup",
                     "p50_ns", "p99_ns", "batch1_mqps", "est_bytes"});
  for (const std::string& name : orderings) {
    Row row = MeasureOrdering(graph, name, k, *histogram, workload, reps);
    std::printf("  %-10s reference=%7.1fns fast=%7.1fns speedup=%5.2fx "
                "p50=%7.1fns p99=%7.1fns batch1=%6.2fMq/s\n",
                row.ordering.c_str(), row.reference_ns, row.fast_ns,
                row.speedup, row.p50_ns, row.p99_ns, row.batch1_mqps);
    std::fflush(stdout);
    table.AddRow({row.ordering, Fixed(row.reference_ns, 1),
                  Fixed(row.fast_ns, 1), Fixed(row.speedup, 2),
                  Fixed(row.p50_ns, 1), Fixed(row.p99_ns, 1),
                  Fixed(row.batch1_mqps, 2),
                  std::to_string(row.resident_bytes)});
    rows.push_back(std::move(row));
  }
  std::printf("\n%s\n", table.ToString().c_str());

  // Bucket lookup alone: Table 4's β sweep ends at n/2.
  const size_t num_probes = std::max<size_t>(
      size_t{1} << 14, static_cast<size_t>(double(size_t{1} << 20) * scale));
  std::vector<LookupRow> lookups;
  for (size_t lookup_beta : {size_t{64}, size_t{874}, size_t(n / 2)}) {
    LookupRow row = MeasureLookup(dist, lookup_beta, num_probes, reps);
    std::printf("  lookup beta=%-6zu independent=%6.1fns chained=%6.1fns\n",
                row.beta, row.lookup_ns[0], row.lookup_chain_ns[0]);
    lookups.push_back(row);
  }

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
          "\"queries\": %zu, \"reference_ns\": %.1f, \"fast_ns\": %.1f, "
          "\"speedup\": %.2f, \"p50_ns\": %.1f, \"p99_ns\": %.1f, "
          "\"batch1_mqps\": %.2f, \"est_bytes\": %zu, "
          "\"hardware_cores\": %zu}%s\n",
          r.ordering.c_str(), r.beta, static_cast<unsigned long long>(r.n),
          r.queries, r.reference_ns, r.fast_ns, r.speedup, r.p50_ns, r.p99_ns,
          r.batch1_mqps, r.resident_bytes, cores, ",");
    }
    for (size_t i = 0; i < lookups.size(); ++i) {
      const LookupRow& r = lookups[i];
      std::fprintf(
          out,
          "  {\"lookup\": \"equi-width\", \"beta\": %zu, \"n\": %llu, "
          "\"probes\": %zu, \"reps\": %zu, "
          "\"lookup_ns\": %.1f, \"lookup_ns_p25\": %.1f, "
          "\"lookup_ns_p75\": %.1f, \"lookup_chain_ns\": %.1f, "
          "\"lookup_chain_ns_p25\": %.1f, \"lookup_chain_ns_p75\": %.1f, "
          "\"hardware_cores\": %zu}%s\n",
          r.beta, static_cast<unsigned long long>(r.n), r.probes, reps,
          r.lookup_ns[0], r.lookup_ns[1], r.lookup_ns[2], r.lookup_chain_ns[0],
          r.lookup_chain_ns[1], r.lookup_chain_ns[2], cores,
          i + 1 < lookups.size() ? "," : "");
    }
    std::fprintf(out, "]\n");
    std::fclose(out);
    std::printf("wrote %zu rows to %s\n", rows.size() + lookups.size(),
                json_path.c_str());
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
