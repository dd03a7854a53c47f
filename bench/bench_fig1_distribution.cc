// Reproduces the paper's Figure 1: the data distribution of the Moreno
// Health dataset over label paths with k = 3 (258 domain positions under the
// num-alph ordering shown in the figure), overlaid with an equi-width
// histogram.
//
// Output: a per-position CSV (fig1_distribution.csv) with the path name,
// exact selectivity, and the equi-width bucket estimate, plus a coarse ASCII
// rendering and summary statistics.

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "core/distribution.h"
#include "core/path_histogram.h"
#include "core/report.h"
#include "ordering/factory.h"

namespace pathest {
namespace {

int Run() {
  const size_t k = bench::SizeFromEnv("PATHEST_K", 3);
  const size_t beta = bench::SizeFromEnv("PATHEST_BETA", 16);

  Graph graph = bench::BuildBenchDataset(DatasetId::kMorenoHealth);
  SelectivityMap map = bench::ComputeWithProgress(graph, k, "moreno");

  auto ordering = MakeOrdering("num-alph", graph, k);
  bench::DieIf(ordering.status(), "ordering");
  auto dist = BuildDistribution(map, **ordering);
  bench::DieIf(dist.status(), "distribution");

  auto estimator = PathHistogram::Build(map, std::move(*ordering),
                                        HistogramType::kEquiWidth, beta);
  bench::DieIf(estimator.status(), "histogram");

  ReportTable csv({"index", "label_path", "selectivity", "equi_width_est"});
  const Ordering& ord = estimator->ordering();
  for (uint64_t i = 0; i < dist->size(); ++i) {
    LabelPath p = ord.Unrank(i);
    csv.AddRow({std::to_string(i), p.ToString(graph.labels()),
                std::to_string((*dist)[i]),
                FormatDouble(estimator->histogram().EstimatePoint(i), 6)});
  }
  bench::DieIf(csv.WriteCsv("fig1_distribution.csv"), "csv");

  DistributionProfile profile = ProfileDistribution(*dist);
  std::printf("Figure 1: Moreno Health distribution, k=%zu (num-alph "
              "ordering), equi-width beta=%zu\n\n", k, beta);
  std::printf("domain size |L_k| = %llu, total pairs = %llu, max f = %llu, "
              "zero-selectivity paths = %llu\n\n",
              static_cast<unsigned long long>(profile.n),
              static_cast<unsigned long long>(profile.total),
              static_cast<unsigned long long>(profile.max_value),
              static_cast<unsigned long long>(profile.num_zero));

  // Coarse ASCII rendering: 64 columns, log-ish vertical scale of 16 rows.
  const size_t kCols = 64;
  const size_t kRows = 16;
  std::vector<uint64_t> col_max(kCols, 0);
  for (uint64_t i = 0; i < dist->size(); ++i) {
    size_t c = static_cast<size_t>(i * kCols / dist->size());
    col_max[c] = std::max(col_max[c], (*dist)[i]);
  }
  uint64_t peak = std::max<uint64_t>(profile.max_value, 1);
  for (size_t r = kRows; r-- > 0;) {
    std::string line;
    for (size_t c = 0; c < kCols; ++c) {
      double frac = static_cast<double>(col_max[c]) / peak;
      line += (frac * kRows > r) ? '#' : ' ';
    }
    std::printf("|%s|\n", line.c_str());
  }
  std::printf("(columns = domain positions in num-alph order; height = max "
              "f within column)\n\n");
  std::printf("wrote fig1_distribution.csv (%zu rows)\n", csv.num_rows());
  return 0;
}

}  // namespace
}  // namespace pathest

int main() { return pathest::Run(); }
