#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "core/serialize.h"
#include "gen/datasets.h"
#include "graph/graph_io.h"
#include "ordering/factory.h"
#include "path/path_space.h"

namespace perfbench {

const std::vector<std::string>& EntryNames() {
  return pathest::PaperOrderingNames();
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 over (seed, stream): decorrelated streams from one seed.
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull +
               0x94D049BB133111EBull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

size_t LatencyHistogram::Index(uint64_t ns) {
  if (ns < (uint64_t{1} << kSubBits)) return ns;
  const int e = 63 - std::countl_zero(ns);  // e >= kSubBits
  const uint64_t sub = (ns >> (e - kSubBits)) & ((1u << kSubBits) - 1);
  return std::min<size_t>(
      (static_cast<size_t>(e - kSubBits + 1) << kSubBits) + sub,
      kBuckets - 1);
}

uint64_t LatencyHistogram::Lower(size_t index) {
  if (index < (size_t{1} << kSubBits)) return index;
  const int e = static_cast<int>(index >> kSubBits) + kSubBits - 1;
  const uint64_t sub = index & ((1u << kSubBits) - 1);
  return ((uint64_t{1} << kSubBits) + sub) << (e - kSubBits);
}

uint64_t LatencyHistogram::Width(size_t index) {
  if (index < (size_t{1} << kSubBits)) return 1;
  const int e = static_cast<int>(index >> kSubBits) + kSubBits - 1;
  return uint64_t{1} << (e - kSubBits);
}

void LatencyHistogram::Add(int64_t ns) {
  ++counts_[Index(static_cast<uint64_t>(std::max<int64_t>(ns, 0)))];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
}

void LatencyHistogram::Reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
}

double LatencyHistogram::PercentileUs(double p) const {
  if (count_ == 0) return 0;
  const double rank = p * static_cast<double>(count_ - 1);
  double before = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    const double c = counts_[i];
    if (c > 0 && rank < before + c) {
      const double within = (rank - before + 0.5) / c;
      return (static_cast<double>(Lower(i)) +
              static_cast<double>(Width(i)) * within) /
             1e3;
    }
    before += c;
  }
  return static_cast<double>(Lower(kBuckets - 1)) / 1e3;
}

int64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

double PeakRssMiB() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string Fmt17(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

double QError(double estimate, double truth) {
  const double e = std::max(estimate, 1.0);
  const double t = std::max(truth, 1.0);
  return std::max(e, t) / std::min(e, t);
}

void DieIf(const Status& status, std::string_view what) {
  if (status.ok()) return;
  std::fprintf(stderr, "perfbench: %.*s failed: %s\n",
               static_cast<int>(what.size()), what.data(),
               status.ToString().c_str());
  std::exit(1);
}

std::vector<LabelPath> AllPaths(size_t num_labels, size_t k) {
  const pathest::PathSpace space(num_labels, k);
  std::vector<LabelPath> paths;
  paths.reserve(space.size());
  for (uint64_t i = 0; i < space.size(); ++i) {
    paths.push_back(space.CanonicalPath(i));
  }
  return paths;
}

Graph WriteMorenoGraphText(const RunOptions& opts, const std::string& path) {
  auto graph = pathest::BuildDataset(pathest::DatasetId::kMorenoHealth,
                                     opts.scale, DeriveSeed(opts.seed, 1));
  DieIf(graph.status(), "graph generation");
  DieIf(pathest::SaveGraphFile(*graph, path), "graph text write");
  return std::move(graph).ValueOrDie();
}

pathest::Result<OfflineBuild> RunOfflineBuild(const std::string& graph_path,
                                              const std::string& cat_dir,
                                              size_t k, size_t num_buckets,
                                              size_t num_threads) {
  Tracer& tr = GlobalTracer();
  pathest::GraphLoadOptions load_options;
  load_options.num_threads = num_threads;
  pathest::GraphLoadStats load_stats;
  auto graph = [&] {
    ScopedSpan span(tr, "graph.load");
    return pathest::LoadGraphFile(graph_path, load_options, &load_stats);
  }();
  if (!graph.ok()) return graph.status();
  tr.Sample("graph.parse_ms", load_stats.parse_ms);
  tr.Sample("graph.build_ms", load_stats.build.total_ms);

  const size_t num_labels = graph->num_labels();
  std::vector<double> root_ms(num_labels, 0.0);
  pathest::SelectivityOptions sel_options;
  sel_options.num_threads = num_threads;
  sel_options.label_time = [&](LabelId root, double ms) {
    root_ms[root] += ms;
  };
  auto truth = [&] {
    ScopedSpan span(tr, "path.selectivity");
    return pathest::ComputeSelectivities(*graph, k, sel_options);
  }();
  if (!truth.ok()) return truth.status();
  double sum = 0;
  double max = 0;
  for (double ms : root_ms) {
    sum += ms;
    max = std::max(max, ms);
  }
  if (sum > 0) {
    tr.Sample("path.root_skew",
              max / (sum / static_cast<double>(num_labels)));
  }
  tr.Sample("engine.threads", static_cast<double>(pathest::ResolvedNumThreads(
                                  sel_options, num_labels, k)));

  std::vector<pathest::PathHistogram> histograms;
  for (const std::string& name : EntryNames()) {
    auto ordering = [&] {
      ScopedSpan span(tr, "ordering.make");
      return pathest::MakeOrdering(name, *graph, k);
    }();
    if (!ordering.ok()) return ordering.status();
    auto histogram = [&] {
      ScopedSpan span(tr, "histogram.build");
      return pathest::PathHistogram::Build(
          *truth, std::move(*ordering), pathest::HistogramType::kVOptimal,
          num_buckets);
    }();
    if (!histogram.ok()) return histogram.status();
    {
      ScopedSpan span(tr, "core.save");
      PATHEST_RETURN_NOT_OK(pathest::SavePathHistogram(
          *histogram, *graph, cat_dir + "/" + name + ".stats",
          pathest::CatalogFormat::kBinaryV2));
    }
    histograms.push_back(std::move(histogram).ValueOrDie());
  }
  return OfflineBuild{std::move(graph).ValueOrDie(),
                      std::move(truth).ValueOrDie(), std::move(histograms)};
}

// ------------------------------------------------------------- EdgeModel

EdgeModel::EdgeModel(const Graph& graph, uint64_t seed)
    : label_names_(graph.labels().names()),
      num_vertices_(static_cast<uint32_t>(graph.num_vertices())),
      rng_(seed) {
  for (const Edge& e : graph.CollectEdges()) Add({e.src, e.dst, e.label});
}

void EdgeModel::Add(const Key& key) {
  if (index_.contains(key)) return;
  index_.emplace(key, edges_.size());
  edges_.push_back(key);
}

void EdgeModel::Remove(size_t index) {
  const Key gone = edges_[index];
  index_.erase(gone);
  if (index + 1 != edges_.size()) {
    edges_[index] = edges_.back();
    index_[edges_[index]] = index;
  }
  edges_.pop_back();
}

std::string EdgeModel::NextBatch(size_t adds, size_t removes) {
  std::uniform_int_distribution<uint32_t> vertex(0, num_vertices_ - 1);
  std::uniform_int_distribution<uint32_t> label(
      0, static_cast<uint32_t>(label_names_.size() - 1));
  std::string tokens;
  auto append = [&](const char* op, const Key& k) {
    tokens += op;
    tokens += ' ' + std::to_string(k.src) + ' ' + std::to_string(k.dst) +
              ' ' + label_names_[k.label] + ' ';
  };
  for (size_t i = 0; i < adds; ++i) {
    const Key key{vertex(rng_), vertex(rng_), label(rng_)};
    append("add", key);
    Add(key);
  }
  for (size_t i = 0; i < removes && !edges_.empty(); ++i) {
    std::uniform_int_distribution<size_t> pick(0, edges_.size() - 1);
    const size_t index = pick(rng_);
    append("remove", edges_[index]);
    Remove(index);
  }
  if (!tokens.empty()) tokens.pop_back();
  return tokens;
}

void EdgeModel::WriteText(const std::string& path) const {
  std::vector<Key> sorted = edges_;
  std::sort(sorted.begin(), sorted.end(), [](const Key& a, const Key& b) {
    return std::tie(a.label, a.src, a.dst) < std::tie(b.label, b.src, b.dst);
  });
  std::string text;
  text.reserve(sorted.size() * 16);
  for (const Key& k : sorted) {
    text += std::to_string(k.src) + ' ' + label_names_[k.label] + ' ' +
            std::to_string(k.dst) + '\n';
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out.good()) DieIf(Status::IOError("cannot write " + path), "model");
}

// ---------------------------------------------------------------- Tracer

int64_t Tracer::Record(std::string_view name, int64_t start_ns,
                       int64_t end_ns, int64_t parent, uint64_t request,
                       uint64_t count) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(
      {std::string(name), start_ns, end_ns, parent, request, count});
  return static_cast<int64_t>(spans_.size() - 1);
}

int64_t Tracer::Begin(std::string_view name, int64_t parent,
                      uint64_t request, uint64_t count) {
  if (!enabled_) return -1;
  const int64_t now = NowNs();
  return Record(name, now, now, parent, request, count);
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

void Tracer::Sample(std::string_view name, double value) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  samples_.emplace_back(std::string(name), value);
}

std::vector<double> Tracer::PerOpNs(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) /
                    static_cast<double>(std::max<uint64_t>(s.count, 1)));
    }
  }
  return out;
}

std::vector<double> Tracer::Samples(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const auto& [n, v] : samples_) {
    if (n == name) out.push_back(v);
  }
  return out;
}

std::unordered_map<uint64_t, double> Tracer::DurationByRequest(
    std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.request != 0) {
      out[s.request] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  return out;
}

Status Tracer::WriteJsonl(const std::string& path,
                          const std::string& header_json) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children per parent, to subtract the union of their intervals.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      kids[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return Status::IOError("cannot write " + path);
  std::fprintf(out, "%s\n", header_json.c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_lo = 0;
    int64_t cur_hi = -1;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    std::fprintf(out,
                 "{\"span\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%lld,\"request\":%llu,"
                 "\"count\":%llu,\"self_ns\":%lld}\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.count),
                 static_cast<long long>(s.end_ns - s.start_ns - covered));
  }
  for (const auto& [name, value] : samples_) {
    std::fprintf(out, "{\"sample\":\"%s\",\"value\":%.17g}\n", name.c_str(),
                 value);
  }
  const bool ok = std::fclose(out) == 0;
  return ok ? Status::OK() : Status::IOError("cannot finish " + path);
}

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

// ---------------------------------------------------------------- Report

void SetSpanLayerMetrics(Report* report) {
  struct Source {
    const char* metric;
    const char* name;  // span or sample name
    bool is_sample;
    const char* unit;  // spans: ms, us or ns
  };
  static const Source kSources[] = {
      {"graph.load_ms", "graph.load", false, "ms"},
      {"graph.parse_ms", "graph.parse_ms", true, "ms"},
      {"graph.build_ms", "graph.build_ms", true, "ms"},
      {"path.selectivity_ms", "path.selectivity", false, "ms"},
      {"path.root_skew", "path.root_skew", true, "ratio"},
      {"engine.threads", "engine.threads", true, "count"},
      {"ordering.make_ms", "ordering.make", false, "ms"},
      {"ordering.rank_ns", "ordering.rank", false, "ns"},
      {"histogram.build_ms", "histogram.build", false, "ms"},
      {"histogram.lookup_ns", "histogram.lookup", false, "ns"},
      {"core.save_ms", "core.save", false, "ms"},
      {"core.mmap_open_us", "core.mmap_open", false, "us"},
      {"core.qerror_pass_ms", "core.qerror_pass", false, "ms"},
      {"serve.request_parse_ns", "serve.request_parse", false, "ns"},
      {"serve.path_parse_ns", "serve.path_parse", false, "ns"},
      {"serve.format_ns", "serve.format", false, "ns"},
      {"serve.handler_us", "serve.handler", false, "us"},
      {"maint.journal_append_ms", "maint.journal_append", false, "ms"},
      {"maint.patch_ms", "maint.patch", false, "ms"},
      {"maint.incremental_ms", "maint.incremental", false, "ms"},
      {"maint.full_rebuild_ms", "maint.full_rebuild", false, "ms"},
      {"maint.dirty_task_frac", "maint.dirty_task_frac", true, "ratio"},
      {"maint.persist_ms", "maint.persist", false, "ms"},
  };
  const Tracer& tr = GlobalTracer();
  for (const Source& s : kSources) {
    if (s.is_sample) {
      report->Set(s.metric, Median(tr.Samples(s.name)), s.unit);
      continue;
    }
    const std::string_view unit = s.unit;
    const double ns_per_unit = unit == "ms" ? 1e6 : unit == "us" ? 1e3 : 1;
    report->Set(s.metric, Median(tr.PerOpNs(s.name)) / ns_per_unit, s.unit);
  }
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  values_[name] = {value, unit};
}

void Report::Fail(const std::string& reason) {
  if (failed_ < 5) std::fprintf(stderr, "perfbench: failed: %s\n",
                                reason.c_str());
  ++failed_;
}

bool Report::Print(const std::vector<MetricDef>& defs,
                   const std::vector<std::string>& notes) const {
  for (const std::string& note : notes) std::printf("%s\n", note.c_str());
  for (const auto& [name, count] : checks_) {
    std::printf("check: %s ran=%llu\n", name.c_str(),
                static_cast<unsigned long long>(count));
  }
  const double failed_frac =
      attempted_ == 0 ? 1.0
                      : static_cast<double>(failed_) /
                            static_cast<double>(attempted_);
  std::printf("metric: failed_frac = %.6g ratio (%llu of %llu operations)\n",
              failed_frac, static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  for (const auto& [name, v] : values_) {
    const bool listed =
        std::any_of(defs.begin(), defs.end(),
                    [&name](const MetricDef& def) { return def.name == name; });
    if (!listed) {
      std::printf("metric: %s = %.6g %s (not gated)\n", name.c_str(), v.value,
                  v.unit.c_str());
    }
  }
  std::string json = "{\"correct\": ";
  json += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  bool complete = true;
  for (const MetricDef& def : defs) {
    const auto it = values_.find(def.name);
    if (it == values_.end()) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   def.name.c_str());
      complete = false;
      continue;
    }
    if (it->second.unit != def.unit) {
      std::fprintf(stderr, "perfbench: metric %s is in %s, not %s\n",
                   def.name.c_str(), it->second.unit.c_str(),
                   def.unit.c_str());
      complete = false;
      continue;
    }
    std::printf("metric: %s = %.6g %s\n", def.name.c_str(), it->second.value,
                def.unit.c_str());
    if (!first) json += ", ";
    first = false;
    json += '"';
    json += def.name;
    json += "\": {\"value\": " + Fmt17(it->second.value) + ", \"unit\": \"";
    json += def.unit;
    json += "\"}";
  }
  json += "}}";
  if (!complete) return false;
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return true;
}

}  // namespace perfbench
