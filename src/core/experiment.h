// pathest: the experiment runner — shared machinery behind the paper-table
// benches and the examples.

#ifndef PATHEST_CORE_EXPERIMENT_H_
#define PATHEST_CORE_EXPERIMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/path_histogram.h"
#include "core/report.h"
#include "graph/graph.h"
#include "graph/graph_io.h"
#include "histogram/builders.h"
#include "path/selectivity.h"
#include "util/status.h"

namespace pathest {

/// \brief Renders one graph load's profile (GraphLoadStats) as a report
/// table: one row per ingest stage — stream read, chunked parse, and each
/// Build phase (partition, CSRs, vertex-major, plane, reverse) — with its
/// share of the end-to-end wall time, plus a plane row (kind, rows,
/// bytes, hub threshold) and a total row with the thread count.
ReportTable GraphIngestReport(const GraphLoadStats& stats);

/// \brief Build-time profile of one exact-selectivity computation: the
/// ground-truth map plus where the wall-clock went (total and per root
/// label). This is the instrumented front door the benches and the CLI use
/// instead of calling ComputeSelectivities directly.
struct SelectivityBuildResult {
  size_t k = 0;
  /// Worker threads the engine actually used (ResolvedNumThreads: 0 ->
  /// hardware concurrency, then clamped to the build's task count, |L|²
  /// prefix tasks for k >= 3).
  size_t num_threads = 1;
  /// End-to-end wall time of ComputeSelectivities, milliseconds.
  double wall_ms = 0.0;
  /// Per-root-label subtree evaluation time, indexed by LabelId: the sum
  /// of the root's pre-pass and prefix-task spans. Under num_threads > 1
  /// these overlap, so they sum to more than wall_ms.
  std::vector<double> per_label_ms;
  SelectivityMap map;
};

/// \brief Runs ComputeSelectivities with timing instrumentation.
///
/// `options.label_time` is chained, not replaced: a caller-supplied sink
/// still fires after the internal recorder.
Result<SelectivityBuildResult> MeasureSelectivityBuild(
    const Graph& graph, size_t k,
    SelectivityOptions options = SelectivityOptions{});

/// \brief Renders a build profile as a report table: one row per root label
/// (name, cardinality, subtree ms, share of summed label time) plus a total
/// row with the wall time and thread count.
ReportTable SelectivityBuildReport(const Graph& graph,
                                   const SelectivityBuildResult& result);

/// \brief The paper's bucket-budget sweep: n/2, n/4, ..., halving for
/// `levels` steps (Table 4 uses n = 55 996 -> 27993 ... 437 with 7 levels).
std::vector<size_t> BetaSweep(uint64_t domain_size, size_t levels);

/// \brief |err| summary of one histogram over its own distribution: walks
/// buckets in domain order and scores every position's bucket-mean estimate
/// against dist[i] (Formula 6). The error multiset equals per-path
/// estimation, since D[i] = f(Unrank(i)). Shared by MeasureAccuracySweep
/// and the examples.
ErrorSummary SummarizeHistogramErrors(const Histogram& histogram,
                                      const std::vector<uint64_t>& dist);

/// \brief One accuracy measurement (a point of the paper's Figure 2).
struct AccuracyResult {
  std::string ordering;
  size_t k = 0;
  size_t beta = 0;
  /// Aggregated |err| over every path in L_k (Formula 6).
  ErrorSummary errors;
  /// Total within-bucket SSE of the built histogram (V-optimal objective).
  double sse = 0.0;
  /// Histogram construction time, milliseconds: the histogram builder
  /// alone, excluding the ordering and the distribution build.
  double build_ms = 0.0;
};

/// \brief Accuracy of one (ordering, k, beta, histogram type) cell: the
/// one-cell MeasureAccuracySweep call (one ordering, one β, serial), so
/// every accuracy number comes from one code path.
///
/// `selectivities` must cover k. Ordering names accepted by
/// MakeOrderingWithSelectivities are allowed ("ideal", "sum-L2" included).
Result<AccuracyResult> MeasureAccuracy(const Graph& graph,
                                       const SelectivityMap& selectivities,
                                       const std::string& ordering_name,
                                       size_t k, size_t beta,
                                       HistogramType histogram_type);

/// \brief Batched accuracy grid — the whole (ordering × β) block of the
/// paper's Figure 2 in one call, through the shared-stats sweep engine
/// (histogram/builders.h): per ordering, the distribution and its
/// DistributionStats are materialized ONCE and every β's histogram comes
/// from one BuildHistogramSweep call (one greedy-merge run for the whole β
/// sweep under kVOptimal).
///
/// Returns the grid row-major: result[o * betas.size() + b] is ordering
/// `ordering_names[o]` at `betas[b]`. Independent orderings fan out on an
/// engine ThreadPool (`num_threads` follows SelectivityOptions semantics:
/// 1 = serial, 0 = hardware); every cell is a pure function of its
/// (ordering, β), so the grid is bit-identical at any thread count, and on
/// failure the lowest-index failing ordering's status is returned. In sweep
/// results `build_ms` holds the ordering's sweep build time amortized
/// equally over its β cells (summing a row gives the true total).
Result<std::vector<AccuracyResult>> MeasureAccuracySweep(
    const Graph& graph, const SelectivityMap& selectivities,
    const std::vector<std::string>& ordering_names, size_t k,
    const std::vector<size_t>& betas, HistogramType histogram_type,
    size_t num_threads = 1);

/// \brief One timing measurement (a cell of the paper's Table 4).
struct TimingResult {
  std::string ordering;
  size_t beta = 0;
  /// Mean wall-clock time of a single Estimate() call, microseconds.
  double avg_estimate_us = 0.0;
  /// Number of estimate calls measured.
  uint64_t calls = 0;
  /// Serving-resident footprint of the estimator answering the cell's
  /// queries (Estimator::ResidentBytes — the histogram rows), surfaced
  /// in the Table 4 report.
  size_t estimator_bytes = 0;
};

/// \brief Batched timing grid — the paper's Table 4 block in one call.
/// Histograms come from the shared-stats sweep engine (one build pass per
/// ordering); the estimation replay of each cell is timed on the SERVING
/// fast path (core/estimator.h: type-tagged scratch Rank + flat bucket
/// lookup), which is what a deployed estimator pays per query. Row-major
/// like MeasureAccuracySweep.
///
/// `num_threads` fans orderings out on an engine ThreadPool; keep the
/// default 1 when the measured times matter — concurrent rows contend for
/// cores and pollute per-query wall times. Parallel runs are still valid
/// for smoke/coverage passes.
Result<std::vector<TimingResult>> MeasureTimingSweep(
    const Graph& graph, const SelectivityMap& selectivities,
    const std::vector<std::string>& ordering_names, size_t k,
    const std::vector<size_t>& betas, HistogramType histogram_type,
    size_t repetitions, size_t num_threads = 1);

}  // namespace pathest

#endif  // PATHEST_CORE_EXPERIMENT_H_
