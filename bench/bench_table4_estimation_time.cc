// Reproduces the paper's Table 4: average estimation execution time in a
// V-optimal histogram under each ordering method, for the bucket sweep
// beta = n/2, n/4, ..., n/128 on the Moreno Health dataset at k = 6.
//
// Notes vs the paper: the absolute numbers differ (the paper measures a Java
// implementation and reports milliseconds; this is C++ and reports
// microseconds per query), but the SHAPE must match — sum-based estimation
// is slower than the closed-form orderings because its ranking function
// walks the three-stage combinatorial partitioning.
//
// Measured on the SERVING fast path (core/estimator.h: type-tagged scratch
// Rank + the histogram's bucket lookup) — the per-query cost a deployed
// estimator pays. The reference path (PathHistogram::Estimate: virtual
// Rank plus the same lookup) is measured against it by
// bench_micro_estimation. The est_bytes column is the serving-resident
// footprint of each row's estimator (the begin and sum rows, 16 bytes
// per bucket; identical across orderings at equal beta).

#include <cstdio>
#include <utility>

#include "bench_util.h"
#include "core/experiment.h"
#include "core/report.h"
#include "ordering/factory.h"

namespace pathest {
namespace {

int Run() {
  const size_t k = bench::SizeFromEnv("PATHEST_K", 6);
  const size_t reps = bench::SizeFromEnv("PATHEST_REPS", 20);

  Graph graph = bench::BuildBenchDataset(DatasetId::kMorenoHealth);
  SelectivityOptions sel_options;
  sel_options.num_threads = bench::ThreadsFromEnv();
  auto build = MeasureSelectivityBuild(graph, k, sel_options);
  bench::DieIf(build.status(), "selectivity computation");
  std::printf("selectivity build profile (ground truth for the sweep):\n%s\n",
              SelectivityBuildReport(graph, *build).ToString().c_str());
  SelectivityMap map = std::move(build->map);

  PathSpace space(graph.num_labels(), k);
  std::printf("Table 4: average estimation time per query (microseconds), "
              "V-optimal, k=%zu, |L_k|=%llu, %zu repetitions of the full "
              "workload\n\n",
              k, static_cast<unsigned long long>(space.size()), reps);

  std::vector<std::string> header = {"beta"};
  for (const std::string& name : PaperOrderingNames()) header.push_back(name);
  header.push_back("est_bytes");
  ReportTable table(header);

  // The whole grid in one call: per ordering, ONE greedy-merge run builds
  // every beta's histogram (sweep engine); replay timing stays serial
  // (num_threads = 1) so per-query wall times are not polluted by
  // concurrent rows.
  const std::vector<size_t> betas = BetaSweep(space.size(), 7);
  const std::vector<std::string>& orderings = PaperOrderingNames();
  auto grid = MeasureTimingSweep(graph, map, orderings, k, betas,
                                 HistogramType::kVOptimal, reps,
                                 /*num_threads=*/1);
  bench::DieIf(grid.status(), "timing sweep");
  for (size_t b = 0; b < betas.size(); ++b) {
    std::vector<std::string> row = {std::to_string(betas[b])};
    for (size_t o = 0; o < orderings.size(); ++o) {
      row.push_back(FormatDouble(
          (*grid)[o * betas.size() + b].avg_estimate_us, 4));
    }
    row.push_back(std::to_string((*grid)[b].estimator_bytes));
    table.AddRow(std::move(row));
  }
  std::printf("%s\n", table.ToString().c_str());
  bench::DieIf(table.WriteCsv("table4_estimation_time_us.csv"), "csv");

  std::printf("expected shape: sum-based is slower than num-*/lex-* at every "
              "beta (paper: ~20%% slower).\n");
  return 0;
}

}  // namespace
}  // namespace pathest

int main() { return pathest::Run(); }
