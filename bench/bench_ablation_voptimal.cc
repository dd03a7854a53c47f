// Ablation A3: quality of the scalable greedy-merge V-optimal builder
// against the exact dynamic program, on domains small enough for the DP.
// Reports the SSE ratio (greedy / exact) and the resulting mean |err| of
// both, under the sum-based ordering.
//
// This justifies the substitution documented in "Design notes" in
// README.md: at paper scale the DP is infeasible, and this ablation shows
// the greedy builder's SSE is within a few percent of optimal on realistic
// path-frequency distributions.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/distribution.h"
#include "core/error.h"
#include "core/report.h"
#include "histogram/builders.h"
#include "ordering/factory.h"

namespace pathest {
namespace {

double MeanAbsErrorOf(const Histogram& h, const std::vector<uint64_t>& dist) {
  double total = 0.0;
  for (size_t b = 0; b < h.num_buckets(); ++b) {
    const double mean = h.BucketMean(b);
    for (uint64_t i = h.begins()[b]; i < h.BucketEnd(b); ++i) {
      total += AbsoluteErrorRate(mean, static_cast<double>(dist[i]));
    }
  }
  return total / static_cast<double>(dist.size());
}

int Run() {
  // k = 4 over 6 labels -> |L_4| = 1554, comfortably within DP range.
  const size_t k = bench::SizeFromEnv("PATHEST_K", 4);
  Graph graph = bench::BuildBenchDataset(DatasetId::kMorenoHealth);
  SelectivityMap map = bench::ComputeWithProgress(graph, k, "moreno");

  auto ordering = MakeOrdering("sum-based", graph, k);
  bench::DieIf(ordering.status(), "ordering");
  auto dist = BuildDistribution(map, **ordering);
  bench::DieIf(dist.status(), "distribution");
  const size_t n = dist->size();

  // Shared stats feed both builders; the greedy side of the whole beta
  // sweep is ONE merge run (sweep engine), the exact side one
  // divide-and-conquer DP per beta.
  DistributionStats stats(*dist);
  std::vector<size_t> betas;
  for (size_t shift : {1u, 2u, 3u, 4u, 5u, 6u}) {
    if ((n >> shift) == 0) break;
    betas.push_back(n >> shift);
  }
  auto greedy_sweep = BuildVOptimalGreedySweep(stats, betas);
  bench::DieIf(greedy_sweep.status(), "greedy sweep");

  ReportTable table({"beta", "sse_exact", "sse_greedy", "sse_ratio",
                     "err_exact", "err_greedy"});
  for (size_t b = 0; b < betas.size(); ++b) {
    const size_t beta = betas[b];
    auto exact = BuildVOptimalExact(stats, beta);
    bench::DieIf(exact.status(), "exact DP");
    const Histogram& greedy = (*greedy_sweep)[b];
    const double sse_exact = TotalSse(*exact, *dist);
    const double sse_greedy = TotalSse(greedy, *dist);
    double ratio = sse_exact == 0.0 ? 1.0 : sse_greedy / sse_exact;
    table.AddRow({std::to_string(beta), FormatDouble(sse_exact, 6),
                  FormatDouble(sse_greedy, 6),
                  FormatDouble(ratio, 4),
                  FormatDouble(MeanAbsErrorOf(*exact, *dist), 4),
                  FormatDouble(MeanAbsErrorOf(greedy, *dist), 4)});
  }
  std::printf("Ablation A3: greedy-merge vs exact-DP V-optimal "
              "(moreno-like, k=%zu, n=%zu, sum-based ordering)\n\n%s\n",
              k, n, table.ToString().c_str());
  bench::DieIf(table.WriteCsv("ablation_voptimal.csv"), "csv");
  return 0;
}

}  // namespace
}  // namespace pathest

int main() { return pathest::Run(); }
