// Graph-ingest bench: end-to-end text-to-Graph load (parse + build) of a
// SNAP-scale generated edge list, comparing the streaming pipeline
// (chunked from_chars parse + parallel counting-sort build) against the
// seed path (getline + istringstream per line, global sort via
// BuildReference). Plain binary, no google-benchmark.
//
// --json[=path] writes one JSON object to `path` (default
// BENCH_graph_load.json): the dataset shape, the seed-path time, one row
// per thread count in {1, 2, 4} with the per-stage breakdown (read /
// parse / partition / csr / vertex-major / plane / reverse) and the
// speedup vs the seed path, and the resulting plane kind/bytes. Every
// row's Graph is asserted BIT-IDENTICAL to the seed path's
// (Graph::IdenticalTo) — cross-thread determinism is checked in-bench,
// not assumed. On hosts with fewer cores than a row's thread count the
// row is still recorded (determinism still validated) and the JSON
// carries a "determinism-validated, speedup pending multi-core" caveat.
//
// Scale knobs: PATHEST_SCALE (1.0 = 1.2M edges over 200k vertices),
// PATHEST_REPS (best-of reps per cell, default 3).

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "gen/generator.h"
#include "gen/label_assigner.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "util/timer.h"

namespace pathest {
namespace {

// The seed reader, kept verbatim as the comparison baseline: one
// istringstream per line feeding per-edge AddEdge calls, finalized by the
// global-sort BuildReference.
Result<Graph> SeedReadGraphText(std::istream* in) {
  GraphBuilder builder;
  std::string line;
  size_t line_no = 0;
  while (std::getline(*in, line)) {
    ++line_no;
    size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    uint64_t src = 0;
    uint64_t dst = 0;
    std::string label;
    if (!(ls >> src)) continue;
    if (!(ls >> label >> dst)) {
      return Status::IOError("malformed edge at line " +
                             std::to_string(line_no) + ": '" + line + "'");
    }
    if (src > UINT32_MAX || dst > UINT32_MAX) {
      return Status::OutOfRange("vertex id exceeds 32 bits at line " +
                                std::to_string(line_no));
    }
    builder.AddEdge(static_cast<VertexId>(src), label,
                    static_cast<VertexId>(dst));
  }
  return builder.BuildReference();
}

struct ThreadRow {
  size_t threads;
  double load_ms;
  GraphLoadStats stats;
  double speedup_vs_seed;
  bool identical;
};

int Run(bool json_mode, const std::string& json_path) {
  const double scale = ScaleFromEnv();
  const size_t reps = bench::SizeFromEnv("PATHEST_REPS", 3);

  ErdosRenyiParams params;
  params.num_vertices = std::max<size_t>(
      500, static_cast<size_t>(200000.0 * scale));
  params.num_edges = std::max<size_t>(
      3000, static_cast<size_t>(1200000.0 * scale));
  params.seed = 42;
  UniformLabelAssigner labels(6);
  auto generated = GenerateErdosRenyi(params, &labels);
  bench::DieIf(generated.status(), "edge-list generation");

  std::ostringstream serialized;
  bench::DieIf(WriteGraphText(*generated, &serialized), "serialization");
  const std::string text = serialized.str();
  std::printf("graph-load: |V|=%zu |E|=%zu |L|=%zu, %.1f MB of text, "
              "best of %zu reps\n",
              generated->num_vertices(), generated->num_edges(),
              generated->num_labels(),
              static_cast<double>(text.size()) / (1024.0 * 1024.0), reps);

  // Seed path: line-at-a-time istringstream parse + global-sort build.
  double seed_ms = 0.0;
  Graph seed_graph;
  for (size_t rep = 0; rep < reps; ++rep) {
    std::istringstream in(text);
    Timer timer;
    auto g = SeedReadGraphText(&in);
    const double ms = timer.ElapsedMillis();
    bench::DieIf(g.status(), "seed-path load");
    if (rep == 0 || ms < seed_ms) seed_ms = ms;
    if (rep == 0) seed_graph = std::move(g).ValueOrDie();
  }
  std::printf("  seed path (istringstream + global sort): %.1f ms\n",
              seed_ms);

  const size_t cores = std::thread::hardware_concurrency();
  std::vector<ThreadRow> rows;
  for (size_t threads : {1u, 2u, 4u}) {
    GraphLoadOptions options;
    options.num_threads = threads;
    ThreadRow row{threads, 0.0, GraphLoadStats{}, 0.0, false};
    for (size_t rep = 0; rep < reps; ++rep) {
      std::istringstream in(text);
      GraphLoadStats stats;
      Timer timer;
      auto g = ReadGraphText(&in, options, &stats);
      const double ms = timer.ElapsedMillis();
      bench::DieIf(g.status(), "streaming load");
      if (rep == 0 || ms < row.load_ms) {
        row.load_ms = ms;
        row.stats = stats;
      }
      if (rep == 0) {
        // Bit-identity vs the seed path, asserted in-bench: CSRs,
        // vertex-major arrays, and plane all equal at every thread count.
        row.identical = g->IdenticalTo(seed_graph);
        PATHEST_CHECK(row.identical, "streaming load differs from seed path");
      }
    }
    row.speedup_vs_seed = row.load_ms > 0.0 ? seed_ms / row.load_ms : 0.0;
    rows.push_back(row);
    std::printf("  threads=%zu: %.1f ms (%.2fx vs seed; read %.1f, parse "
                "%.1f [%zu chunks], build %.1f = partition %.1f + csr %.1f "
                "+ vm %.1f + plane %.1f), identical=%s\n",
                threads, row.load_ms, row.speedup_vs_seed, row.stats.read_ms,
                row.stats.parse_ms, row.stats.num_chunks,
                row.stats.build.total_ms, row.stats.build.partition_ms,
                row.stats.build.csr_ms, row.stats.build.vm_ms,
                row.stats.build.plane_ms, row.identical ? "yes" : "no");
  }
  const GraphBuildStats& plane = rows.front().stats.build;
  std::printf("  plane: kind=%s rows=%zu bytes=%zu\n",
              PlaneKindName(plane.plane_kind), plane.plane_rows,
              plane.plane_bytes);
  const bool multicore = cores >= 4;
  if (!multicore) {
    std::printf("  note: %zu hardware core(s) — thread rows are "
                "determinism-validated, speedup pending multi-core\n",
                cores);
  }

  if (!json_mode) return 0;
  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"dataset\": \"snap-er\",\n"
               "  \"vertices\": %zu,\n"
               "  \"edges\": %zu,\n"
               "  \"labels\": %zu,\n"
               "  \"text_bytes\": %zu,\n"
               "  \"reps\": %zu,\n"
               "  \"hardware_cores\": %zu,\n"
               "  \"seed_path_ms\": %.3f,\n",
               generated->num_vertices(), generated->num_edges(),
               generated->num_labels(), text.size(), reps, cores, seed_ms);
  std::fprintf(out, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const ThreadRow& r = rows[i];
    std::fprintf(
        out,
        "    {\"threads\": %zu, \"load_ms\": %.3f, \"speedup_vs_seed\": "
        "%.3f, \"identical_to_seed\": %s, \"read_ms\": %.3f, \"parse_ms\": "
        "%.3f, \"parse_chunks\": %zu, \"build_ms\": %.3f, \"partition_ms\": "
        "%.3f, \"csr_ms\": %.3f, \"vertex_major_ms\": %.3f, \"plane_ms\": "
        "%.3f}%s\n",
        r.threads, r.load_ms, r.speedup_vs_seed,
        r.identical ? "true" : "false", r.stats.read_ms, r.stats.parse_ms,
        r.stats.num_chunks, r.stats.build.total_ms,
        r.stats.build.partition_ms, r.stats.build.csr_ms, r.stats.build.vm_ms,
        r.stats.build.plane_ms, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"plane\": {\"kind\": \"%s\", \"rows\": %zu, \"bytes\": "
               "%zu},\n",
               PlaneKindName(plane.plane_kind), plane.plane_rows,
               plane.plane_bytes);
  std::fprintf(out, "  \"caveat\": \"%s\"\n",
               multicore
                   ? ""
                   : "thread rows recorded on a single-core host: "
                     "determinism-validated, speedup pending multi-core");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace pathest

int main(int argc, char** argv) {
  bool json_mode = false;
  std::string json_path = "BENCH_graph_load.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json_mode = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_mode = true;
      json_path = arg.substr(7);
    }
  }
  return pathest::Run(json_mode, json_path);
}
