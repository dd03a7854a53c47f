// Microbenchmark M3: histogram construction — independent per-β rebuilds
// versus the shared-stats multi-β sweep engine (histogram/builders.h).
//
// For each config (a paper-scale synthetic zipf frequency sequence and a
// pipeline-derived moreno distribution) and each histogram type, this times
// the paper's 7-level β sweep two ways:
//   * per-β   — one BuildHistogram(type, data, β) call per β, each
//               recomputing whatever aggregates/selections it needs
//               (the pre-engine behavior);
//   * sweep   — one BuildHistogramSweep call over a PREBUILT
//               DistributionStats. Stats construction is timed once per
//               config and reported as its own "stats-build" row, matching
//               real grid usage (core/experiment sweeps build stats once
//               per distribution and share them across every β — and a
//               grid over several types shares them across types too).
// Both sides take the best wall time of PATHEST_REPS runs, and the bucket
// vectors are asserted bit-identical before any timing is reported. A
// "total" row per config sums the measured types and charges the stats
// build to the sweep side, so it is an end-to-end comparison.
//
// --json[=path] additionally writes one JSON object per row to `path`
// (default BENCH_histograms.json): {"config", "n", "type", "levels",
// "per_beta_ms", "sweep_ms", "speedup"}. Scale knobs: PATHEST_SCALE
// (scales both configs), PATHEST_REPS (default 3), PATHEST_K (moreno path
// length, default 4). The exact-DP type is not measured at all: its sweep
// path is a plain per-β fallback (identity is unit-tested), and at
// β ~ n/2 its cost dwarfs every other builder by ~1000x while measuring
// nothing about the sweep engine.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/distribution.h"
#include "core/experiment.h"
#include "core/report.h"
#include "gen/datasets.h"
#include "histogram/builders.h"
#include "histogram/stats.h"
#include "ordering/factory.h"
#include "util/random.h"
#include "util/timer.h"

namespace pathest {
namespace {

// A paper-scale frequency sequence without the (expensive) exact
// selectivity pipeline: m = 20 n zipf-distributed path occurrences counted
// into n positions. Index order follows the zipf rank, so frequencies are
// clustered the way a good ordering clusters a real path distribution.
std::vector<uint64_t> SyntheticZipfDistribution(size_t n, uint64_t seed) {
  std::vector<uint64_t> data(n, 0);
  Rng rng(seed);
  ZipfDistribution zipf(n, 1.0);
  const size_t samples = 20 * n;
  for (size_t i = 0; i < samples; ++i) {
    ++data[zipf.Sample(&rng)];
  }
  return data;
}

std::vector<uint64_t> MorenoDistribution(double scale, size_t k) {
  auto graph = BuildDataset(DatasetId::kMorenoHealth, 0.25 * scale, 42);
  bench::DieIf(graph.status(), "moreno generation");
  auto map = ComputeSelectivities(*graph, k);
  bench::DieIf(map.status(), "selectivity computation");
  auto ordering = MakeOrdering("sum-based", *graph, k);
  bench::DieIf(ordering.status(), "ordering");
  auto dist = BuildDistribution(*map, **ordering);
  bench::DieIf(dist.status(), "distribution");
  return std::move(*dist);
}

struct Row {
  std::string config;
  size_t n = 0;
  std::string type;
  size_t levels = 0;
  double per_beta_ms = 0.0;
  double sweep_ms = 0.0;
  double speedup = 0.0;
};

bool SameBuckets(const Histogram& a, const Histogram& b) {
  return a.domain_size() == b.domain_size() &&
         std::ranges::equal(a.begins(), b.begins()) &&
         std::ranges::equal(a.sums(), b.sums());
}

Row MeasureType(const std::string& config, const std::vector<uint64_t>& data,
                const DistributionStats& stats, HistogramType type,
                const std::vector<size_t>& betas, size_t reps) {
  // Identity check first: the sweep must be a pure speedup.
  {
    auto sweep = BuildHistogramSweep(type, stats, betas);
    bench::DieIf(sweep.status(), "sweep build");
    for (size_t b = 0; b < betas.size(); ++b) {
      auto per_beta = BuildHistogram(type, data, betas[b]);
      bench::DieIf(per_beta.status(), "per-beta build");
      if (!SameBuckets((*sweep)[b], *per_beta)) {
        std::fprintf(stderr, "sweep/per-beta mismatch: %s type=%s beta=%zu\n",
                     config.c_str(), HistogramTypeName(type), betas[b]);
        std::exit(1);
      }
    }
  }

  Row row;
  row.config = config;
  row.n = data.size();
  row.type = HistogramTypeName(type);
  row.levels = betas.size();
  double sink = 0.0;
  // Interleave the two sides' reps so machine jitter drifts into both
  // minima equally instead of biasing whichever block ran second.
  for (size_t rep = 0; rep < reps; ++rep) {
    {
      Timer timer;
      for (size_t beta : betas) {
        auto h = BuildHistogram(type, data, beta);
        bench::DieIf(h.status(), "per-beta build");
        sink += h->sums()[0];
      }
      const double ms = timer.ElapsedMillis();
      if (rep == 0 || ms < row.per_beta_ms) row.per_beta_ms = ms;
    }
    {
      Timer timer;
      auto sweep = BuildHistogramSweep(type, stats, betas);
      bench::DieIf(sweep.status(), "sweep build");
      for (const Histogram& h : *sweep) sink += h.sums()[0];
      const double ms = timer.ElapsedMillis();
      if (rep == 0 || ms < row.sweep_ms) row.sweep_ms = ms;
    }
  }
  row.speedup = row.sweep_ms > 0.0 ? row.per_beta_ms / row.sweep_ms : 0.0;
  if (sink == -1.0) row.levels += 1;  // defeat dead-code elimination
  return row;
}

int Run(bool json_mode, const std::string& json_path) {
  const double scale = ScaleFromEnv();
  const size_t reps = bench::SizeFromEnv("PATHEST_REPS", 3);
  const size_t k = bench::SizeFromEnv("PATHEST_K", 4);

  struct Config {
    std::string name;
    std::vector<uint64_t> data;
  };
  std::vector<Config> configs;
  // Paper-scale domain: |L_6| over 6 labels = 55 986 positions.
  const size_t zipf_n = std::max<size_t>(
      512, static_cast<size_t>(55986.0 * scale));
  configs.push_back({"zipf-paper-n", SyntheticZipfDistribution(zipf_n, 42)});
  configs.push_back({"moreno-k" + std::to_string(k),
                     MorenoDistribution(scale, k)});

  const std::vector<HistogramType> types = {
      HistogramType::kEquiWidth, HistogramType::kEquiDepth,
      HistogramType::kVOptimal,  HistogramType::kMaxDiff,
      HistogramType::kEndBiased};

  std::vector<Row> rows;
  ReportTable table({"config", "n", "type", "per_beta_ms", "sweep_ms",
                     "speedup"});
  for (const Config& config : configs) {
    const std::vector<size_t> betas = BetaSweep(config.data.size(), 7);
    std::printf("%s: n=%zu, %zu beta levels (%zu..%zu), best of %zu reps\n",
                config.name.c_str(), config.data.size(), betas.size(),
                betas.empty() ? 0 : betas.front(),
                betas.empty() ? 0 : betas.back(), reps);

    // The one-time stats build every sweep consumer amortizes over its
    // grid; timed on its own and charged to the sweep side of the total.
    DistributionStats stats(config.data);
    double stats_ms = 0.0;
    for (size_t rep = 0; rep < reps; ++rep) {
      Timer timer;
      DistributionStats rebuilt(config.data);
      const double ms = timer.ElapsedMillis();
      if (rebuilt.n() != config.data.size()) std::exit(1);  // keep it alive
      if (rep == 0 || ms < stats_ms) stats_ms = ms;
    }
    Row stats_row;
    stats_row.config = config.name;
    stats_row.n = config.data.size();
    stats_row.type = "stats-build";
    stats_row.levels = betas.size();
    stats_row.sweep_ms = stats_ms;
    std::printf("  %-16s sweep=%9.3fms (one-time, shared by every build)\n",
                stats_row.type.c_str(), stats_ms);
    table.AddRow({config.name, std::to_string(stats_row.n), stats_row.type,
                  "-", FormatDouble(stats_ms, 3), "-"});
    rows.push_back(stats_row);

    Row total;
    total.config = config.name;
    total.n = config.data.size();
    total.type = "total";
    total.levels = betas.size();
    total.sweep_ms = stats_ms;
    for (HistogramType type : types) {
      Row row = MeasureType(config.name, config.data, stats, type, betas,
                            reps);
      std::printf("  %-16s per_beta=%9.3fms sweep=%9.3fms speedup=%5.2fx\n",
                  row.type.c_str(), row.per_beta_ms, row.sweep_ms,
                  row.speedup);
      std::fflush(stdout);
      table.AddRow({row.config, std::to_string(row.n), row.type,
                    FormatDouble(row.per_beta_ms, 3),
                    FormatDouble(row.sweep_ms, 3),
                    FormatDouble(row.speedup, 2)});
      total.per_beta_ms += row.per_beta_ms;
      total.sweep_ms += row.sweep_ms;
      rows.push_back(std::move(row));
    }
    total.speedup =
        total.sweep_ms > 0.0 ? total.per_beta_ms / total.sweep_ms : 0.0;
    std::printf("  %-16s per_beta=%9.3fms sweep=%9.3fms speedup=%5.2fx "
                "(stats build charged to the sweep)\n",
                total.type.c_str(), total.per_beta_ms, total.sweep_ms,
                total.speedup);
    table.AddRow({total.config, std::to_string(total.n), total.type,
                  FormatDouble(total.per_beta_ms, 3),
                  FormatDouble(total.sweep_ms, 3),
                  FormatDouble(total.speedup, 2)});
    rows.push_back(std::move(total));
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
      std::fprintf(out,
                   "  {\"config\": \"%s\", \"n\": %zu, \"type\": \"%s\", "
                   "\"levels\": %zu, \"per_beta_ms\": %.3f, "
                   "\"sweep_ms\": %.3f, \"speedup\": %.2f}%s\n",
                   r.config.c_str(), r.n, r.type.c_str(), r.levels,
                   r.per_beta_ms, r.sweep_ms, r.speedup,
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
  std::string json_path = "BENCH_histograms.json";
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
