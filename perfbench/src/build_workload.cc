// The `build` workload: the offline statistics build of the paper's Table 4
// domain, pass after pass. Each pass reads the generated moreno-like graph
// text, computes exact selectivities at k = 6 (|L_6| = 55,986), builds a
// V-optimal histogram with β = |L_6| / 64 = 874 for each of the five paper
// orderings, saves each as a binary-v2 catalog entry, maps it back
// (MappedCatalogEntry::Open at kChecksums), and finally runs a full-domain
// q-error pass through every mapped Estimator. Selectivity and histogram
// construction do nearly all the work; serve and maint do none.

#include <cstring>
#include <filesystem>

#include "bench.h"
#include "core/mapped_catalog.h"
#include "core/serialize.h"

namespace perfbench {
namespace {

constexpr size_t kBuildK = 6;
// Loader and engine workers: fewer than nproc, so the machine is not
// oversubscribed.
constexpr size_t kEngineThreads = 2;
constexpr size_t kBucketDivisor = 64;  // β = |L_k| / 64
// Paths estimated per timed chunk of the q-error pass: the size of one
// serve request, so estimate_* here is the in-process cost of a request.
constexpr size_t kChunkPaths = 10;
// One set-up takes ~12 ms; the median of 5 spread 0.42 (IQR / median)
// over ten seeds, so set-up is repeated until it is steady.
constexpr int kSetupReps = 25;
constexpr int kMinPasses = 3;

struct Input {
  std::string graph_path;
  std::string cat_dir;
  std::vector<LabelPath> paths;  // L_k in canonical order
};

// Per-pass figures; a run reports their medians over passes, so one pass
// disturbed by the machine does not set a percentile.
struct PassTotals {
  std::vector<double> pass_s;
  std::vector<double> visible_ms;
  std::vector<double> chunk_p50_us;
  std::vector<double> chunk_p90_us;
  std::vector<double> chunk_p99_us;
  std::vector<double> chunk_rps;
  size_t chunks = 0;
  std::vector<double> qerrors;  // first pass only (deterministic per seed)
  uint64_t catalog_bytes = 0;
};

void RunPass(const Input& in, PassTotals* totals, Report* report) {
  Tracer& tr = GlobalTracer();
  report->Attempt(EntryNames().size());
  const int64_t start = NowNs();
  const size_t beta = in.paths.size() / kBucketDivisor;
  auto built = RunOfflineBuild(in.graph_path, in.cat_dir, kBuildK, beta,
                               kEngineThreads);
  if (!built.ok()) {
    report->Fail("offline build: " + built.status().ToString());
    return;
  }
  std::vector<std::shared_ptr<const pathest::MappedCatalogEntry>> mapped;
  for (const std::string& name : EntryNames()) {
    auto entry = [&] {
      ScopedSpan span(tr, "core.mmap_open");
      return pathest::MappedCatalogEntry::Open(
          in.cat_dir + "/" + name + ".stats",
          pathest::CatalogVerify::kChecksums);
    }();
    if (!entry.ok()) {
      report->Fail("mmap open " + name + ": " + entry.status().ToString());
      return;
    }
    mapped.push_back(*entry);
  }
  totals->visible_ms.push_back(static_cast<double>(NowNs() - start) / 1e6);

  // Full-domain q-error pass through the mapped estimators, timed in
  // request-sized chunks.
  const std::vector<uint64_t>& truth = built->truth.values();
  const size_t n = in.paths.size();
  std::vector<std::vector<double>> estimates(mapped.size(),
                                             std::vector<double>(n));
  const bool keep_qerrors = totals->qerrors.empty();
  std::vector<double> chunk_us;
  for (size_t e = 0; e < mapped.size(); ++e) {
    ScopedSpan span(tr, "core.qerror_pass");
    const pathest::Estimator& estimator = mapped[e]->estimator();
    pathest::RankScratch scratch;
    scratch.Reserve(estimator.num_labels());
    std::vector<double>& out = estimates[e];
    for (size_t i = 0; i < n; i += kChunkPaths) {
      const size_t end = std::min(n, i + kChunkPaths);
      const int64_t t0 = NowNs();
      for (size_t j = i; j < end; ++j) {
        out[j] = estimator.Estimate(in.paths[j], scratch);
      }
      chunk_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
    if (keep_qerrors) {
      for (size_t j = 0; j < n; ++j) {
        totals->qerrors.push_back(
            QError(out[j], static_cast<double>(truth[j])));
      }
    }
  }
  totals->pass_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  double chunk_total_us = 0;
  for (double us : chunk_us) chunk_total_us += us;
  totals->chunk_p50_us.push_back(Percentile(chunk_us, 0.50));
  totals->chunk_p90_us.push_back(Percentile(chunk_us, 0.90));
  totals->chunk_p99_us.push_back(Percentile(chunk_us, 0.99));
  totals->chunk_rps.push_back(static_cast<double>(chunk_us.size()) /
                              (chunk_total_us / 1e6));
  totals->chunks += chunk_us.size();

  // Untimed oracle: each mapped entry answers every path of L_k exactly
  // (bit for bit) as the in-memory PathHistogram it was saved from.
  for (size_t e = 0; e < mapped.size(); ++e) {
    size_t mismatches = 0;
    for (size_t j = 0; j < n; ++j) {
      const double want = built->histograms[e].Estimate(in.paths[j]);
      if (std::memcmp(&want, &estimates[e][j], sizeof(double)) != 0) {
        ++mismatches;
      }
    }
    report->CheckRan("build.mapped_equals_in_memory");
    if (mismatches != 0) {
      report->Fail(EntryNames()[e] + ": " + std::to_string(mismatches) +
                   " mapped estimates differ from the in-memory histogram");
    }
  }

  uint64_t bytes = 0;
  for (const auto& entry : mapped) bytes += entry->mapped_bytes();
  totals->catalog_bytes = bytes;

  if (tr.enabled()) {
    // Per-call cost of the two serving-path layers over the whole domain.
    for (const auto& entry : mapped) {
      const pathest::Estimator& estimator = entry->estimator();
      pathest::RankScratch scratch;
      scratch.Reserve(estimator.num_labels());
      std::vector<uint64_t> ranks(n);
      {
        ScopedSpan span(tr, "ordering.rank", -1, 0, n);
        for (size_t j = 0; j < n; ++j) {
          ranks[j] = estimator.Rank(in.paths[j], scratch);
        }
      }
      double sink = 0;
      {
        ScopedSpan span(tr, "histogram.lookup", -1, 0, n);
        for (size_t j = 0; j < n; ++j) {
          sink += estimator.flat().EstimatePoint(ranks[j]);
        }
      }
      if (sink < 0) report->Fail("negative estimate mass");
    }
  }
}

void RunPasses(const Input& in, double seconds, PassTotals* totals,
               Report* report) {
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (int pass = 0; pass < kMinPasses || NowNs() < end; ++pass) {
    RunPass(in, totals, report);
    if (report->failed() != 0) return;
  }
}

}  // namespace

void RunBuild(const RunOptions& opts, Report* report) {
  Input in;
  in.graph_path = opts.work_dir + "/graph.txt";
  in.cat_dir = opts.work_dir + "/cat";
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const int64_t t0 = NowNs();
    std::filesystem::remove_all(in.cat_dir);
    std::filesystem::create_directories(in.cat_dir);
    const Graph graph = WriteMorenoGraphText(opts, in.graph_path);
    in.paths = AllPaths(graph.num_labels(), kBuildK);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  Tracer& tr = GlobalTracer();
  if (!opts.trace) {
    PassTotals totals;
    RunPasses(in, opts.seconds, &totals, report);
    report->Set("setup_s", Median(setup_s), "s");
    report->Set("build_s", Median(totals.pass_s), "s");
    report->Set("catalog_bytes", static_cast<double>(totals.catalog_bytes),
                "bytes");
    report->Set("qerror_p50", Percentile(totals.qerrors, 0.50), "ratio");
    report->Set("qerror_p95", Percentile(totals.qerrors, 0.95), "ratio");
    report->Set("estimate_p50_us", Median(totals.chunk_p50_us), "us");
    report->Set("estimate_p90_us", Median(totals.chunk_p90_us), "us");
    report->Set("estimate_p99_us", Median(totals.chunk_p99_us), "us");
    report->Set("estimate_rps", Median(totals.chunk_rps), "req/s");
    report->Set("update_visible_p50_ms", Percentile(totals.visible_ms, 0.50),
                "ms");
    report->Set("update_visible_p95_ms", Percentile(totals.visible_ms, 0.95),
                "ms");
    std::printf("samples: passes=%zu estimate_requests=%zu\n",
                totals.pass_s.size(), totals.chunks);
    return;
  }

  // Traced run: the same passes untraced, then traced, on the same input;
  // the difference of their median pass times is the tracing overhead.
  PassTotals untraced;
  RunPasses(in, opts.seconds / 2, &untraced, report);
  PassTotals traced;
  tr.Enable(true);
  RunPasses(in, opts.seconds / 2, &traced, report);
  tr.Enable(false);
  SetSpanLayerMetrics(report);
  // The serve and maint figures that come from a daemon this workload does
  // not run.
  static const MetricDef kNotRun[] = {
      {"core.cache_hits", "count"},   {"core.cache_misses", "count"},
      {"serve.transport_us", "us"},   {"serve.shed", "count"},
      {"serve.deadline_exceeded", "count"},
      {"serve.invalid", "count"},     {"serve.publishes", "count"},
      {"serve.mapped_entry_frac", "ratio"},
      {"maint.edges_per_refresh", "count"},
      {"maint.compactions", "count"}, {"gen.lag_ms", "ms"}};
  for (const MetricDef& zero : kNotRun) report->Set(zero.name, 0, zero.unit);
  const double base = Median(untraced.pass_s);
  report->Set("trace.overhead_frac",
              base > 0 ? (Median(traced.pass_s) - base) / base : 0, "ratio");
}

}  // namespace perfbench
