// perfbench: shared pieces of the pathest benchmark of record — run
// options, seeded input generation, percentiles, the span recorder, and
// the result report (metric lists and the final JSON line).

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/path_histogram.h"
#include "graph/graph.h"
#include "path/label_path.h"
#include "path/selectivity.h"
#include "util/status.h"

namespace perfbench {

using pathest::Edge;
using pathest::Graph;
using pathest::LabelId;
using pathest::LabelPath;
using pathest::Status;
using pathest::VertexId;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Graph scale passed to the moreno-like generator (1.0 = the paper's
  /// Table 3 size); the self-check runs reduced.
  double scale = 1.0;
  /// Scratch directory (relative to the checkout root, so the Unix socket
  /// path stays short) for graph text, catalogs and the socket.
  std::string work_dir;
};

/// The five paper orderings served by every catalog, in the paper's order.
const std::vector<std::string>& EntryNames();

/// Distinct, reproducible stream seeds derived from the run seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// Percentile with linear interpolation between closest ranks (numpy's
/// default). 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// Latency samples in fixed memory: log-linear buckets over nanoseconds,
/// 256 per power of two (under 0.4% wide), so recording never allocates
/// and the benchmark's own footprint does not grow with throughput.
class LatencyHistogram {
 public:
  LatencyHistogram() : counts_(kBuckets, 0) {}
  void Add(int64_t ns);
  void Merge(const LatencyHistogram& other);
  void Reset();
  uint64_t count() const { return count_; }
  /// Percentile p in [0, 1] in microseconds, interpolated by rank inside
  /// the bucket that holds it; 0 when empty.
  double PercentileUs(double p) const;

 private:
  static constexpr int kSubBits = 8;
  static constexpr size_t kBuckets = size_t{48} << kSubBits;
  static size_t Index(uint64_t ns);
  static uint64_t Lower(size_t index);
  static uint64_t Width(size_t index);

  std::vector<uint32_t> counts_;
  uint64_t count_ = 0;
};

/// Nanoseconds on the steady clock since the process-wide epoch.
int64_t NowNs();

/// Peak resident set of this process in MiB.
double PeakRssMiB();

/// %.17g — the round-trippable rendering the serve protocol promises.
std::string Fmt17(double value);

/// q-error of one estimate against its true value, both clamped to >= 1.
double QError(double estimate, double truth);

/// Dies with a message when `status` is not OK — setup failures make the
/// run invalid, they are not counted operations.
void DieIf(const Status& status, std::string_view what);

/// Every path of L_k over `num_labels` labels in canonical order.
std::vector<LabelPath> AllPaths(size_t num_labels, size_t k);

/// Generates the moreno-like input graph for the run seed and writes it as
/// edge-list text to `path`; the program under test only ever reads that
/// text. Returns the generated graph.
Graph WriteMorenoGraphText(const RunOptions& opts, const std::string& path);


/// What one offline build produced, entries in EntryNames() order.
struct OfflineBuild {
  Graph graph;
  pathest::SelectivityMap truth;
  std::vector<pathest::PathHistogram> histograms;
};

/// The offline path, with a span around every library call: graph text ->
/// LoadGraphFile -> ComputeSelectivities(k) -> per paper ordering
/// MakeOrdering + V-optimal PathHistogram::Build(num_buckets) + binary-v2
/// SavePathHistogram into `<cat_dir>/<ordering>.stats`. The loader and the
/// selectivity engine run on `num_threads` workers.
pathest::Result<OfflineBuild> RunOfflineBuild(const std::string& graph_path,
                                              const std::string& cat_dir,
                                              size_t k, size_t num_buckets,
                                              size_t num_threads);

/// The update generator's model of the current graph: the edge set implied
/// by every applied batch, with O(1) membership and uniform sampling of a
/// present edge.
class EdgeModel {
 public:
  EdgeModel(const Graph& graph, uint64_t seed);

  /// One batch of `adds` random additions and `removes` removals of edges
  /// present in the model, as protocol tokens
  /// ("add <src> <dst> <label> ... remove ..."), applied to the model.
  std::string NextBatch(size_t adds, size_t removes);

  /// Writes the model as edge-list text in (label id, src, dst) order, so
  /// labels intern in the original dictionary order on load.
  void WriteText(const std::string& path) const;

 private:
  struct Key {
    VertexId src;
    VertexId dst;
    LabelId label;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<uint64_t>()((uint64_t{k.src} << 32 | k.dst) * 31 +
                                   k.label);
    }
  };
  void Add(const Key& key);
  void Remove(size_t index);

  std::vector<std::string> label_names_;
  uint32_t num_vertices_ = 0;
  std::vector<Key> edges_;
  std::unordered_map<Key, size_t, KeyHash> index_;
  std::mt19937_64 rng_;
};

/// One recorded span: [start, end) on NowNs, the span that caused it (-1
/// for a root), the request it belongs to (0 for none), and how many
/// operations of the same kind it covers (per-op cost = duration / count).
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t request = 0;
  uint64_t count = 1;
};

/// In-memory span recorder, written out once at the end of a traced run.
/// Disabled, every call is a single branch. Thread-safe.
class Tracer {
 public:
  void Enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Records a finished span; returns its id (-1 when disabled).
  int64_t Record(std::string_view name, int64_t start_ns, int64_t end_ns,
                 int64_t parent = -1, uint64_t request = 0,
                 uint64_t count = 1);
  /// Opens a span that End() closes; returns its id (-1 when disabled).
  int64_t Begin(std::string_view name, int64_t parent = -1,
                uint64_t request = 0, uint64_t count = 1);
  void End(int64_t id);

  /// Records one value measured at a layer boundary (a count, a ratio, or
  /// a stage time the library reports about its own call).
  void Sample(std::string_view name, double value);

  /// Per-operation durations (ns) of every span named `name`.
  std::vector<double> PerOpNs(std::string_view name) const;
  std::vector<double> Samples(std::string_view name) const;
  /// Whole-span durations (ns) keyed by request id.
  std::unordered_map<uint64_t, double> DurationByRequest(
      std::string_view name) const;

  /// Writes one JSON object per span (self time included: the span's
  /// duration minus the union of its children's intervals) and per
  /// sample, preceded by a header line `header_json`.
  Status WriteJsonl(const std::string& path,
                    const std::string& header_json) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<std::pair<std::string, double>> samples_;
};

/// RAII span over one call into a layer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view name, int64_t parent = -1,
             uint64_t request = 0, uint64_t count = 1)
      : tracer_(tracer), id_(tracer.Begin(name, parent, request, count)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  int64_t id_;
};

/// Metric name and unit, as BENCHMARK.json lists them.
struct MetricDef {
  std::string name;
  std::string unit;
};

class Report;

/// Sets every per-layer metric that comes from a span or a boundary sample
/// of GlobalTracer(): the median per call (per operation for spans that
/// cover several), 0 for a layer the run never called.
void SetSpanLayerMetrics(Report* report);

/// Collects a run's metrics, operation counts and correctness checks, and
/// prints the summary lines plus the final JSON line.
class Report {
 public:
  /// Records a figure; whether it is gated is BENCHMARK.json's choice.
  void Set(const std::string& name, double value, const std::string& unit);
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  /// Counts a failed operation; the first few reasons go to stderr.
  void Fail(const std::string& reason);
  /// Records that correctness check `name` ran `n` more times.
  void CheckRan(const std::string& name, uint64_t n = 1) {
    checks_[name] += n;
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// Prints `note` lines, the correctness checks, every figure set but not
  /// in `defs` marked "(not gated)", every metric of `defs` (the
  /// BENCHMARK.json list for this mode) with its unit, and the final JSON
  /// line. Returns false (after saying which) when a metric of `defs` was
  /// never set or was set with another unit.
  bool Print(const std::vector<MetricDef>& defs,
             const std::vector<std::string>& notes) const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> values_;
  std::map<std::string, uint64_t> checks_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

Tracer& GlobalTracer();

/// Workload entry points; each fills `report` (end-to-end metrics when
/// untraced, per-layer metrics when traced). A setup failure exits the
/// process through DieIf.
void RunBuild(const RunOptions& opts, Report* report);
void RunServe(const RunOptions& opts, bool with_updates, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
