// Reproduces the paper's Table 3: dataset statistics (#edge labels,
// #vertices, #edges, real-world flag) for the four evaluation datasets.
//
// The real datasets (Moreno Health, DBpedia) are synthesized stand-ins with
// the published shape — see "Design notes" in README.md; this bench
// verifies the generated graphs actually land on the paper's row values, and
// prints per-label cardinalities as supplementary detail.

#include <cstdio>

#include "bench_util.h"
#include "core/report.h"
#include "graph/graph_stats.h"

namespace pathest {
namespace {

int Run() {
  ReportTable table({"Dataset", "#Edge Labels", "#Vertices", "#Edges",
                     "Real world data", "paper #Vertices", "paper #Edges"});
  for (const DatasetSpec& spec : AllDatasetSpecs()) {
    Graph graph = bench::BuildBenchDataset(spec.id);
    GraphStats stats = ComputeGraphStats(graph);
    table.AddRow({spec.name, std::to_string(stats.num_labels),
                  std::to_string(stats.num_vertices),
                  std::to_string(stats.num_edges),
                  spec.real_world ? "yes" : "no",
                  std::to_string(spec.num_vertices),
                  std::to_string(spec.num_edges)});
    std::printf("%s label cardinalities:\n", spec.name.c_str());
    for (LabelId l = 0; l < graph.num_labels(); ++l) {
      std::printf("  %s: %llu\n", graph.labels().Name(l).c_str(),
                  static_cast<unsigned long long>(
                      stats.label_cardinalities[l]));
    }
  }
  std::printf("\nTable 3: datasets\n\n%s\n", table.ToString().c_str());
  bench::DieIf(table.WriteCsv("table3_datasets.csv"), "csv");
  return 0;
}

}  // namespace
}  // namespace pathest

int main() { return pathest::Run(); }
