#include "core/experiment.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "core/distribution.h"
#include "core/estimator.h"
#include "core/workload.h"
#include "engine/thread_pool.h"
#include "histogram/stats.h"
#include "ordering/factory.h"
#include "util/timer.h"

namespace pathest {

namespace {

// Worker count for the per-ordering grid fan-out, following
// SelectivityOptions semantics (0 = hardware) clamped to the job count.
size_t GridThreads(size_t num_threads, size_t num_orderings) {
  const size_t requested =
      num_threads == 0 ? ThreadPool::DefaultThreads() : num_threads;
  return std::min(requested, num_orderings);
}

// Runs `row(o)` for every ordering index, serially or on a pool, and
// returns the lowest-index failure so the outcome never depends on thread
// count (same pattern as ComputeSelectivities).
Status RunOrderingRows(size_t num_orderings, size_t num_threads,
                       const std::function<Status(size_t)>& row) {
  std::vector<Status> row_status(num_orderings);
  const size_t threads = GridThreads(num_threads, num_orderings);
  if (threads <= 1) {
    for (size_t o = 0; o < num_orderings; ++o) row_status[o] = row(o);
  } else {
    ThreadPool pool(threads);
    pool.ParallelFor(num_orderings,
                     [&](size_t o, size_t /*worker*/) { row_status[o] = row(o); });
  }
  for (size_t o = 0; o < num_orderings; ++o) {
    if (!row_status[o].ok()) return std::move(row_status[o]);
  }
  return Status::OK();
}

}  // namespace

Result<SelectivityBuildResult> MeasureSelectivityBuild(
    const Graph& graph, size_t k, SelectivityOptions options) {
  std::vector<double> per_label_ms(graph.num_labels(), 0.0);
  auto user_label_time = std::move(options.label_time);
  // The recorder runs inside the evaluator's callback mutex, so plain
  // writes to per_label_ms are safe; each root fires exactly once.
  options.label_time = [&per_label_ms, &user_label_time](LabelId root,
                                                         double millis) {
    per_label_ms[root] = millis;
    if (user_label_time) user_label_time(root, millis);
  };
  const size_t num_threads =
      ResolvedNumThreads(options, graph.num_labels(), k);
  Timer timer;
  auto map = ComputeSelectivities(graph, k, options);
  const double wall_ms = timer.ElapsedMillis();
  if (!map.ok()) return map.status();
  return SelectivityBuildResult{k, num_threads, wall_ms,
                                std::move(per_label_ms), std::move(*map)};
}

ReportTable GraphIngestReport(const GraphLoadStats& stats) {
  ReportTable table({"stage", "ms", "share_%"});
  const double total = stats.total_ms;
  const auto add_stage = [&table, total](const std::string& stage,
                                         double ms) {
    const double share = total > 0.0 ? 100.0 * ms / total : 0.0;
    table.AddRow({stage, FormatDouble(ms, 4), FormatDouble(share, 3)});
  };
  add_stage("read", stats.read_ms);
  add_stage("parse(" + std::to_string(stats.num_chunks) + " chunks)",
            stats.parse_ms);
  add_stage("build/partition", stats.build.partition_ms);
  add_stage("build/csr", stats.build.csr_ms);
  add_stage("build/vertex-major", stats.build.vm_ms);
  add_stage("build/plane", stats.build.plane_ms);
  if (stats.build.reverse_ms > 0.0) {
    add_stage("build/reverse", stats.build.reverse_ms);
  }
  table.AddRow({std::string("plane(") +
                    PlaneKindName(stats.build.plane_kind) + ", " +
                    std::to_string(stats.build.plane_rows) + " rows, " +
                    std::to_string(stats.build.plane_bytes) + " B)",
                "", ""});
  table.AddRow({"total(wall, " + std::to_string(stats.num_threads) +
                    " thread" + (stats.num_threads == 1 ? "" : "s") + ")",
                FormatDouble(stats.total_ms, 4), "100"});
  return table;
}

ReportTable SelectivityBuildReport(const Graph& graph,
                                   const SelectivityBuildResult& result) {
  ReportTable table({"label", "card", "eval_ms", "share_%"});
  double label_total_ms = 0.0;
  for (double ms : result.per_label_ms) label_total_ms += ms;
  for (LabelId l = 0; l < result.per_label_ms.size(); ++l) {
    const double ms = result.per_label_ms[l];
    const double share = label_total_ms > 0.0 ? 100.0 * ms / label_total_ms
                                              : 0.0;
    table.AddRow({graph.labels().Name(l), std::to_string(graph.LabelCardinality(l)),
                  FormatDouble(ms, 4), FormatDouble(share, 3)});
  }
  table.AddRow({"total(wall, " + std::to_string(result.num_threads) +
                    " thread" + (result.num_threads == 1 ? "" : "s") + ")",
                std::to_string(graph.num_edges()),
                FormatDouble(result.wall_ms, 4), "100"});
  return table;
}

ErrorSummary SummarizeHistogramErrors(const Histogram& histogram,
                                      const std::vector<uint64_t>& dist) {
  std::vector<double> abs_errors;
  abs_errors.reserve(dist.size());
  // Walk buckets in domain order instead of searching per index.
  for (size_t b = 0; b < histogram.num_buckets(); ++b) {
    const double mean = histogram.BucketMean(b);
    for (uint64_t i = histogram.begins()[b]; i < histogram.BucketEnd(b);
         ++i) {
      abs_errors.push_back(
          AbsoluteErrorRate(mean, static_cast<double>(dist[i])));
    }
  }
  return SummarizeErrors(std::move(abs_errors));
}

std::vector<size_t> BetaSweep(uint64_t domain_size, size_t levels) {
  std::vector<size_t> betas;
  uint64_t beta = domain_size;
  for (size_t i = 0; i < levels; ++i) {
    beta /= 2;
    if (beta == 0) break;
    betas.push_back(static_cast<size_t>(beta));
  }
  return betas;
}

Result<AccuracyResult> MeasureAccuracy(const Graph& graph,
                                       const SelectivityMap& selectivities,
                                       const std::string& ordering_name,
                                       size_t k, size_t beta,
                                       HistogramType histogram_type) {
  auto grid = MeasureAccuracySweep(graph, selectivities, {ordering_name}, k,
                                   {beta}, histogram_type, 1);
  if (!grid.ok()) return grid.status();
  return std::move((*grid)[0]);
}

Result<std::vector<AccuracyResult>> MeasureAccuracySweep(
    const Graph& graph, const SelectivityMap& selectivities,
    const std::vector<std::string>& ordering_names, size_t k,
    const std::vector<size_t>& betas, HistogramType histogram_type,
    size_t num_threads) {
  const size_t num_betas = betas.size();
  std::vector<AccuracyResult> grid(ordering_names.size() * num_betas);

  auto row = [&](size_t o) -> Status {
    auto ordering = MakeOrderingWithSelectivities(ordering_names[o], graph, k,
                                                  selectivities);
    if (!ordering.ok()) return ordering.status();
    auto dist = BuildDistribution(selectivities, **ordering);
    if (!dist.ok()) return dist.status();
    DistributionStats stats(*dist);

    Timer build_timer;
    auto histograms = BuildHistogramSweep(histogram_type, stats, betas);
    if (!histograms.ok()) return histograms.status();
    const double amortized_ms =
        num_betas == 0 ? 0.0
                       : build_timer.ElapsedMillis() /
                             static_cast<double>(num_betas);

    for (size_t b = 0; b < num_betas; ++b) {
      const Histogram& h = (*histograms)[b];
      AccuracyResult& cell = grid[o * num_betas + b];
      cell.ordering = (*ordering)->name();
      cell.k = k;
      cell.beta = betas[b];
      cell.errors = SummarizeHistogramErrors(h, *dist);
      cell.sse = TotalSse(h, *dist);
      cell.build_ms = amortized_ms;
    }
    return Status::OK();
  };

  PATHEST_RETURN_NOT_OK(RunOrderingRows(ordering_names.size(), num_threads,
                                        row));
  return grid;
}

Result<std::vector<TimingResult>> MeasureTimingSweep(
    const Graph& graph, const SelectivityMap& selectivities,
    const std::vector<std::string>& ordering_names, size_t k,
    const std::vector<size_t>& betas, HistogramType histogram_type,
    size_t repetitions, size_t num_threads) {
  const size_t num_betas = betas.size();
  std::vector<TimingResult> grid(ordering_names.size() * num_betas);

  PathSpace space(graph.num_labels(), k);
  const std::vector<LabelPath> workload = AllPathsWorkload(space);

  auto row = [&](size_t o) -> Status {
    auto ordering = MakeOrderingWithSelectivities(ordering_names[o], graph, k,
                                                  selectivities);
    if (!ordering.ok()) return ordering.status();
    auto dist = BuildDistribution(selectivities, **ordering);
    if (!dist.ok()) return dist.status();
    DistributionStats stats(*dist);
    auto histograms = BuildHistogramSweep(histogram_type, stats, betas);
    if (!histograms.ok()) return histograms.status();

    RankScratch scratch;
    for (size_t b = 0; b < num_betas; ++b) {
      const Histogram& h = (*histograms)[b];
      TimingResult& cell = grid[o * num_betas + b];
      cell.ordering = (*ordering)->name();
      cell.beta = betas[b];
      // The serving fast path: type-tagged scratch Rank + flat bucket
      // lookup (core/estimator.h), i.e. what a deployed estimator pays.
      const Estimator estimator(**ordering, h);
      cell.estimator_bytes = estimator.ResidentBytes();
      double sink = 0.0;
      Timer timer;
      for (size_t rep = 0; rep < repetitions; ++rep) {
        for (const LabelPath& path : workload) {
          sink += estimator.Estimate(path, scratch);
        }
      }
      const double total_us = timer.ElapsedMicros();
      cell.calls = static_cast<uint64_t>(repetitions) * workload.size();
      cell.avg_estimate_us =
          cell.calls == 0 ? 0.0
                          : total_us / static_cast<double>(cell.calls);
      if (sink == -1.0) cell.calls += 1;  // defeat dead-code elimination
    }
    return Status::OK();
  };

  PATHEST_RETURN_NOT_OK(RunOrderingRows(ordering_names.size(), num_threads,
                                        row));
  return grid;
}

}  // namespace pathest
