// Microbenchmark M2 (google-benchmark): throughput of the exact selectivity
// evaluator and of histogram construction, the two build-time costs of the
// pipeline.
//
// The selectivity rows take {k, threads, kernel} (kernel: 0 = auto, 1 =
// sparse, 2 = dense). The threads=1/kernel=sparse rows are the scalar
// baseline; every other row's map is asserted bit-identical to it.
//
// --json[=path] switches to a machine-readable sweep instead of the
// google-benchmark console: it times ComputeSelectivities for every
// (dataset, threads, kernel) cell — best wall time of PATHEST_REPS runs,
// taken round-robin over the cells — and writes one JSON array to `path`
// (default BENCH_selectivity.json), one object per cell: {"dataset", "k",
// "threads", "kernel", "build_ms", "build_ms_p25", "build_ms_p75"} (the
// best, and the quartiles of the reps: the cell's spread), plus
// "auto_vs_best" on auto rows (auto's build_ms over the better forced
// kernel's at the same threads).
// Cross-kernel / cross-thread bit-identity of the map is asserted inside
// the sweep (every cell against the first cell's values). The er-dense
// dataset is an Erdős–Rényi configuration dense enough that the dense
// bitmap kernel should win by an integer factor; moreno is the
// quarter-size moreno-like graph at k = PATHEST_K (default 4); moreno-full
// is the full-size one at k = 6 on two workers, the offline build of
// perfbench's build workload. The printed summary reports auto's ratio to
// the best forced kernel per config. Scale knobs: PATHEST_SCALE,
// PATHEST_REPS, PATHEST_K.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/distribution.h"
#include "gen/datasets.h"
#include "gen/generator.h"
#include "gen/label_assigner.h"
#include "histogram/builders.h"
#include "ordering/factory.h"
#include "path/selectivity.h"
#include "util/status.h"
#include "util/timer.h"

namespace pathest {
namespace {

const Graph& BenchGraph() {
  static const Graph* graph = [] {
    auto g = BuildDataset(DatasetId::kMorenoHealth, 0.25, 42);
    PATHEST_CHECK(g.ok(), "dataset build failed");
    return new Graph(std::move(*g));
  }();
  return *graph;
}

// Args: {k, num_threads, kernel}. The threads=1/kernel=sparse rows are
// the scalar baseline; the parallel-engine speedup is threads=N vs
// threads=1 at equal k, and the kernel speedup is kernel=dense/auto vs
// kernel=sparse at threads=1. Every row's map is asserted bit-identical to
// the baseline.
void BM_ComputeSelectivities(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const size_t threads = static_cast<size_t>(state.range(1));
  const PairKernel kernel = static_cast<PairKernel>(state.range(2));
  SelectivityOptions options;
  options.num_threads = threads;
  options.kernel = kernel;
  static std::map<size_t, std::vector<uint64_t>>* baseline_maps =
      new std::map<size_t, std::vector<uint64_t>>();
  for (auto _ : state) {
    auto map = ComputeSelectivities(BenchGraph(), k, options);
    PATHEST_CHECK(map.ok(), "selectivity failed");
    benchmark::DoNotOptimize(map->Total());
    if (threads == 1 && kernel == PairKernel::kSparse) {
      (*baseline_maps)[k] = map->values();
    } else if (auto it = baseline_maps->find(k); it != baseline_maps->end()) {
      PATHEST_CHECK(it->second == map->values(),
                    "map differs from the sparse serial baseline");
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(PathSpace(6, k).size()));
}
BENCHMARK(BM_ComputeSelectivities)
    ->ArgNames({"k", "threads", "kernel"})
    ->Args({2, 1, 1})
    ->Args({3, 1, 1})
    ->Args({4, 1, 1})  // sparse serial baselines first: later rows check
    ->Args({4, 1, 2})  // against them
    ->Args({4, 1, 0})
    ->Args({4, 2, 0})
    ->Args({4, 4, 0})
    ->Args({5, 1, 1})
    ->Args({5, 1, 2})
    ->Args({5, 1, 0})
    ->Args({5, 2, 0})
    ->Args({5, 4, 0})
    ->MeasureProcessCPUTime()
    ->UseRealTime();

const std::vector<uint64_t>& BenchDistribution() {
  static const std::vector<uint64_t>* dist = [] {
    auto map = ComputeSelectivities(BenchGraph(), 5);
    PATHEST_CHECK(map.ok(), "selectivity failed");
    auto ordering = MakeOrdering("sum-based", BenchGraph(), 5);
    PATHEST_CHECK(ordering.ok(), "ordering failed");
    auto d = BuildDistribution(*map, **ordering);
    PATHEST_CHECK(d.ok(), "distribution failed");
    return new std::vector<uint64_t>(std::move(*d));
  }();
  return *dist;
}

void BM_BuildHistogram(benchmark::State& state, HistogramType type) {
  const auto& dist = BenchDistribution();
  const size_t beta = dist.size() / static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto h = BuildHistogram(type, dist, beta);
    PATHEST_CHECK(h.ok(), "histogram failed");
    benchmark::DoNotOptimize(h->TotalSse());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(dist.size()));
}

void RegisterHistogramBenches() {
  struct Entry {
    const char* name;
    HistogramType type;
  };
  for (Entry e : {Entry{"equi-width", HistogramType::kEquiWidth},
                  Entry{"equi-depth", HistogramType::kEquiDepth},
                  Entry{"v-optimal-greedy", HistogramType::kVOptimal},
                  Entry{"maxdiff", HistogramType::kMaxDiff},
                  Entry{"end-biased", HistogramType::kEndBiased}}) {
    benchmark::RegisterBenchmark(
        (std::string("BM_BuildHistogram/") + e.name).c_str(),
        [type = e.type](benchmark::State& s) { BM_BuildHistogram(s, type); })
        ->Arg(4)
        ->Arg(64);
  }
}

// ------------------------------------------------------------- --json mode

// An Erdős–Rényi configuration dense enough that penultimate-level cells
// run ~30 candidate emissions per bitmap word — the dense kernel's home
// turf. Density per word FALLS as |V| grows at fixed degree (cells stay
// ~deg² emissions while the scan is |V|/64 words), so a compact graph is
// the dense showcase; override with PATHEST_ER_V / PATHEST_ER_DEG to map
// the crossover (dense ≈ sparse near |V|=8000 at degree 30).
Graph BuildDenseErGraph(double scale) {
  ErdosRenyiParams params;
  params.num_vertices = std::max<size_t>(
      60, static_cast<size_t>(
              static_cast<double>(bench::SizeFromEnv("PATHEST_ER_V", 2000)) *
              scale));
  params.num_edges =
      params.num_vertices * bench::SizeFromEnv("PATHEST_ER_DEG", 30);
  params.seed = 42;
  UniformLabelAssigner labels(3);
  auto g = GenerateErdosRenyi(params, &labels);
  bench::DieIf(g.status(), "er-dense generation");
  return std::move(g).ValueOrDie();
}

struct JsonRow {
  std::string dataset;
  size_t k;
  size_t threads;
  PairKernel kernel;
  double build_ms;      // best of the reps
  double build_ms_p25;  // quartiles of the reps
  double build_ms_p75;
  double auto_vs_best = 0;  // auto rows: build_ms / best forced kernel's
};

// Auto's wall time over the better forced kernel's, from a build_ms
// triple indexed by PairKernel.
double AutoVsBest(const double (&ms)[3]) {
  return ms[static_cast<size_t>(PairKernel::kAuto)] /
         std::min(ms[static_cast<size_t>(PairKernel::kSparse)],
                  ms[static_cast<size_t>(PairKernel::kDense)]);
}

int RunJsonMode(const std::string& out_path) {
  const double scale = ScaleFromEnv();
  const size_t reps = bench::SizeFromEnv("PATHEST_REPS", 3);

  struct Config {
    std::string name;
    Graph graph;
    size_t k;
    // Empty: threads=1, plus the hardware-resolved count when it differs.
    std::vector<size_t> thread_counts;
  };
  std::vector<Config> configs;
  configs.push_back({"er-dense", BuildDenseErGraph(scale), 3, {}});
  {
    auto moreno = BuildDataset(DatasetId::kMorenoHealth, 0.25 * scale, 42);
    bench::DieIf(moreno.status(), "moreno generation");
    configs.push_back({"moreno", std::move(moreno).ValueOrDie(),
                       bench::SizeFromEnv("PATHEST_K", 4), {}});
  }
  {
    // The offline k = 6 build on the full-size moreno-like graph at two
    // workers: the shape of perfbench's build workload.
    auto moreno = BuildDataset(DatasetId::kMorenoHealth, scale, 42);
    bench::DieIf(moreno.status(), "moreno-full generation");
    configs.push_back({"moreno-full", std::move(moreno).ValueOrDie(), 6, {2}});
  }

  constexpr PairKernel kKernels[] = {PairKernel::kSparse, PairKernel::kDense,
                                     PairKernel::kAuto};
  std::vector<JsonRow> rows;
  for (const Config& config : configs) {
    std::printf("%s: |V|=%zu |E|=%zu |L|=%zu k=%zu\n", config.name.c_str(),
                config.graph.num_vertices(), config.graph.num_edges(),
                config.graph.num_labels(), config.k);
    std::vector<size_t> thread_counts = config.thread_counts;
    if (thread_counts.empty()) {
      thread_counts.push_back(1);
      SelectivityOptions hw;
      hw.num_threads = 0;
      const size_t resolved =
          ResolvedNumThreads(hw, config.graph.num_labels(), config.k);
      if (resolved > 1) thread_counts.push_back(resolved);
    }

    std::vector<uint64_t> baseline_values;
    for (size_t threads : thread_counts) {
      // Best wall time per kernel cell, indexed by the enum values. Reps
      // run round-robin over the cells, so host drift during the sweep
      // hits every kernel alike instead of biasing a ratio.
      double ms[3] = {0, 0, 0};
      std::vector<double> samples[3];
      for (size_t rep = 0; rep < reps; ++rep) {
        for (PairKernel kernel : kKernels) {
          SelectivityOptions options;
          options.num_threads = threads;
          options.kernel = kernel;
          Timer timer;
          auto map = ComputeSelectivities(config.graph, config.k, options);
          const double elapsed_ms = timer.ElapsedMillis();
          bench::DieIf(map.status(), "selectivity computation");
          double& best_ms = ms[static_cast<size_t>(kernel)];
          if (rep == 0 || elapsed_ms < best_ms) best_ms = elapsed_ms;
          samples[static_cast<size_t>(kernel)].push_back(elapsed_ms);
          // Cross-kernel / cross-thread identity: every cell's map must
          // equal the first cell's, bit for bit.
          if (baseline_values.empty()) {
            baseline_values = map->values();
          } else {
            PATHEST_CHECK(map->values() == baseline_values,
                          "map differs across kernels/threads");
          }
        }
      }
      for (PairKernel kernel : kKernels) {
        const size_t cell = static_cast<size_t>(kernel);
        JsonRow row{config.name,
                    config.k,
                    threads,
                    kernel,
                    ms[cell],
                    bench::Percentile(&samples[cell], 0.25),
                    bench::Percentile(&samples[cell], 0.75)};
        if (kernel == PairKernel::kAuto) row.auto_vs_best = AutoVsBest(ms);
        rows.push_back(row);
        std::printf("  threads=%zu kernel=%-6s build_ms=%.3f "
                    "(p25 %.3f, p75 %.3f)\n",
                    threads, PairKernelName(kernel), row.build_ms,
                    row.build_ms_p25, row.build_ms_p75);
      }
      std::printf("  threads=%zu summary: auto / best forced kernel %.3f\n",
                  threads, AutoVsBest(ms));
    }
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "[\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const JsonRow& r = rows[i];
    std::fprintf(out,
                 "  {\"dataset\": \"%s\", \"k\": %zu, \"threads\": %zu, "
                 "\"kernel\": \"%s\", \"build_ms\": %.3f, "
                 "\"build_ms_p25\": %.3f, \"build_ms_p75\": %.3f",
                 r.dataset.c_str(), r.k, r.threads, PairKernelName(r.kernel),
                 r.build_ms, r.build_ms_p25, r.build_ms_p75);
    if (r.kernel == PairKernel::kAuto) {
      std::fprintf(out, ", \"auto_vs_best\": %.3f", r.auto_vs_best);
    }
    std::fprintf(out, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  std::fclose(out);
  std::printf("wrote %zu rows to %s\n", rows.size(), out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace pathest

int main(int argc, char** argv) {
  // Peel off --json[=path] before google-benchmark sees the argv.
  bool json_mode = false;
  std::string json_path = "BENCH_selectivity.json";
  std::vector<char*> kept;
  kept.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json_mode = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_mode = true;
      json_path = arg.substr(7);
    } else {
      kept.push_back(argv[i]);
    }
  }
  if (json_mode) return pathest::RunJsonMode(json_path);

  int kept_argc = static_cast<int>(kept.size());
  pathest::RegisterHistogramBenches();
  benchmark::Initialize(&kept_argc, kept.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
