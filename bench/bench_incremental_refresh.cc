// bench_incremental_refresh: incremental statistics rebuild
// (maint/incremental.h) versus a full ComputeSelectivities on the patched
// graph — the number that makes "re-run only the dirtied prefix tasks" a
// measurement instead of a slogan. For each delta-batch size the bench
// patches a dbpedia-like base graph and times both rebuilds over
// PATHEST_REPS interleaved reps (full, then incremental, in every rep, so
// host drift hits both sides alike). Every rep's incremental map is
// checked against the full one (bit-identical by contract; the bench
// exits 1 on any difference). A row reports the median of each side with
// its quartiles, the ratio of the medians, and the dirtiness accounting
// (touched roots, dirty tasks, cone size) that explains it. Small batches
// should re-run a fraction of the |L|² task grid; as the batch grows the
// dirty set saturates and the ratio decays toward 1 — both regimes belong
// in the output. Knobs: PATHEST_SCALE, PATHEST_K (default 3),
// PATHEST_REPS (default 5), PATHEST_THREADS (0 = hardware).
//
// --json[=path] writes one JSON object (default
// BENCH_incremental_refresh.json) with per-row times and dirtiness.

#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "maint/incremental.h"
#include "path/selectivity.h"
#include "util/timer.h"

namespace pathest {
namespace {

struct Row {
  size_t batch = 0;
  double full_ms = 0;  // medians over the reps, then the quartiles
  double full_ms_p25 = 0;
  double full_ms_p75 = 0;
  double incremental_ms = 0;
  double incremental_ms_p25 = 0;
  double incremental_ms_p75 = 0;
  double speedup = 0;  // full_ms / incremental_ms
  size_t touched_roots = 0;
  size_t total_roots = 0;
  size_t dirty_tasks = 0;
  size_t total_tasks = 0;
  size_t cone_vertices = 0;
};

// A delta batch of `size` mutations: half adds of fresh random edges,
// half removes of edges actually present (sampled via the adjacency).
std::vector<maint::EdgeDelta> MakeBatch(const Graph& graph, size_t size,
                                        uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<uint32_t> vertex(
      0, static_cast<uint32_t>(graph.num_vertices() - 1));
  std::uniform_int_distribution<uint32_t> label(
      0, static_cast<uint32_t>(graph.num_labels() - 1));
  std::vector<maint::EdgeDelta> deltas;
  while (deltas.size() < size) {
    if (deltas.size() % 2 == 0) {
      deltas.push_back({true, vertex(rng), vertex(rng), label(rng)});
      continue;
    }
    // Sample a present edge for removal: random (v, l) until one has
    // out-neighbors (the generated datasets are dense enough for this to
    // hit within a few probes).
    for (int probe = 0; probe < 256; ++probe) {
      const uint32_t v = vertex(rng);
      const uint32_t l = label(rng);
      auto out = graph.OutNeighbors(v, l);
      if (!out.empty()) {
        deltas.push_back({false, v, out[out.size() / 2], l});
        break;
      }
    }
    if (deltas.size() % 2 == 1) {  // all probes missed: settle for an add
      deltas.push_back({true, vertex(rng), vertex(rng), label(rng)});
    }
  }
  return deltas;
}

int Run(bool json_mode, const std::string& json_path) {
  const size_t k = bench::SizeFromEnv("PATHEST_K", 3);
  const size_t reps = bench::SizeFromEnv("PATHEST_REPS", 5);
  const size_t cores = std::thread::hardware_concurrency();
  Graph graph = bench::BuildBenchDataset(DatasetId::kDbpedia);
  SelectivityOptions options;
  options.num_threads = bench::ThreadsFromEnv();
  const size_t threads =
      ResolvedNumThreads(options, graph.num_labels(), k);
  std::printf("graph: %zu vertices, %zu labels, k=%zu, %zu reps, "
              "%zu threads, %zu hardware cores\n",
              graph.num_vertices(), graph.num_labels(), k, reps, threads,
              cores);
  SelectivityMap base = bench::ComputeWithProgress(graph, k, "base");

  std::vector<Row> rows;
  for (size_t batch : {size_t{1}, size_t{4}, size_t{16}, size_t{64},
                       size_t{256}}) {
    std::vector<maint::EdgeDelta> deltas =
        MakeBatch(graph, batch, 1000 + batch);
    auto patched = maint::PatchGraph(graph, deltas, options.num_threads);
    bench::DieIf(patched.status(), "patch");

    std::vector<double> full_ms;
    std::vector<double> inc_ms;
    maint::IncrementalStats stats;
    for (size_t rep = 0; rep < reps; ++rep) {
      Timer full_timer;
      auto full = ComputeSelectivities(*patched, k, options);
      full_ms.push_back(full_timer.ElapsedMillis());
      bench::DieIf(full.status(), "full rebuild");

      Timer inc_timer;
      auto incremental =
          maint::IncrementalSelectivities(*patched, base, deltas, options,
                                          &stats);
      inc_ms.push_back(inc_timer.ElapsedMillis());
      bench::DieIf(incremental.status(), "incremental rebuild");
      if (incremental->values() != full->values()) {
        std::fprintf(stderr,
                     "bench invalid: incremental != full at batch=%zu\n",
                     batch);
        return 1;
      }
    }

    Row row;
    row.batch = batch;
    row.full_ms = bench::Percentile(&full_ms, 0.5);
    row.full_ms_p25 = bench::Percentile(&full_ms, 0.25);
    row.full_ms_p75 = bench::Percentile(&full_ms, 0.75);
    row.incremental_ms = bench::Percentile(&inc_ms, 0.5);
    row.incremental_ms_p25 = bench::Percentile(&inc_ms, 0.25);
    row.incremental_ms_p75 = bench::Percentile(&inc_ms, 0.75);
    row.speedup =
        row.incremental_ms > 0 ? row.full_ms / row.incremental_ms : 0;
    row.touched_roots = stats.touched_roots;
    row.total_roots = stats.total_roots;
    row.dirty_tasks = stats.dirty_tasks;
    row.total_tasks = stats.total_tasks;
    row.cone_vertices = stats.cone_vertices;
    rows.push_back(row);
    std::printf(
        "batch=%zu: full=%.1fms (p25 %.1f, p75 %.1f) incremental=%.1fms "
        "(p25 %.1f, p75 %.1f) speedup=%.2fx roots=%zu/%zu tasks=%zu/%zu "
        "cone=%zu\n",
        row.batch, row.full_ms, row.full_ms_p25, row.full_ms_p75,
        row.incremental_ms, row.incremental_ms_p25, row.incremental_ms_p75,
        row.speedup, row.touched_roots, row.total_roots, row.dirty_tasks,
        row.total_tasks, row.cone_vertices);
  }

  if (!json_mode) return 0;
  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"incremental_refresh\",\n");
  std::fprintf(out, "  \"k\": %zu,\n", k);
  std::fprintf(out, "  \"reps\": %zu,\n", reps);
  std::fprintf(out, "  \"threads\": %zu,\n", threads);
  std::fprintf(out, "  \"hardware_cores\": %zu,\n", cores);
  std::fprintf(out, "  \"num_vertices\": %zu,\n", graph.num_vertices());
  std::fprintf(out, "  \"num_labels\": %zu,\n", graph.num_labels());
  std::fprintf(out, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"batch\": %zu, \"full_ms\": %.2f, "
                 "\"full_ms_p25\": %.2f, \"full_ms_p75\": %.2f, "
                 "\"incremental_ms\": %.2f, \"incremental_ms_p25\": %.2f, "
                 "\"incremental_ms_p75\": %.2f, \"speedup\": %.2f, "
                 "\"touched_roots\": %zu, \"total_roots\": %zu, "
                 "\"dirty_tasks\": %zu, \"total_tasks\": %zu, "
                 "\"cone_vertices\": %zu}%s\n",
                 r.batch, r.full_ms, r.full_ms_p25, r.full_ms_p75,
                 r.incremental_ms, r.incremental_ms_p25,
                 r.incremental_ms_p75, r.speedup,
                 r.touched_roots, r.total_roots, r.dirty_tasks,
                 r.total_tasks, r.cone_vertices,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace pathest

int main(int argc, char** argv) {
  bool json_mode = false;
  std::string json_path = "BENCH_incremental_refresh.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json_mode = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_mode = true;
      json_path = arg.substr(7);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  return pathest::Run(json_mode, json_path);
}
