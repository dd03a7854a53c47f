// pathest: canned dataset configurations reproducing the paper's Table 3.
//
// The paper evaluates on Moreno Health (konect), a DBpedia subgraph, and two
// SNAP-generated synthetic graphs (Erdős–Rényi and Forest Fire). The real
// datasets are not redistributable/offline-available, so this module builds
// synthetic stand-ins with the same |V| / |E| / |L| and the structural
// properties the paper's analysis relies on (see "Design notes" in
// README.md):
//   * moreno-like  — preferential attachment + Zipf-skewed labels,
//   * dbpedia-like — preferential attachment + typed-predicate labels
//                    (correlated labels, as in real RDF data),
//   * snap-er      — Erdős–Rényi, uniform labels (same model as the paper),
//   * snap-ff      — Forest Fire, uniform labels (same model as the paper).

#ifndef PATHEST_GEN_DATASETS_H_
#define PATHEST_GEN_DATASETS_H_

#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace pathest {

/// \brief Identifier of a canned dataset.
enum class DatasetId {
  kMorenoHealth,
  kDbpedia,
  kSnapEr,
  kSnapFf,
};

/// \brief Static description of a canned dataset (the row of Table 3).
struct DatasetSpec {
  DatasetId id;
  /// Short name used in reports ("moreno", "dbpedia", "snap-er", "snap-ff").
  std::string name;
  size_t num_labels;
  size_t num_vertices;
  size_t num_edges;
  /// Whether the paper's original is real-world data.
  bool real_world;
};

/// \brief All four paper datasets, in Table 3 order.
const std::vector<DatasetSpec>& AllDatasetSpecs();

/// \brief Spec lookup by name; NotFound for unknown names.
Result<DatasetSpec> FindDatasetSpec(const std::string& name);

/// \brief Materializes a canned dataset.
///
/// \param scale shrinks |V| and |E| proportionally (0 < scale <= 1); 1.0
///   reproduces the paper's sizes. Useful for quick bench runs.
/// \param seed generator seed; fixed default keeps experiments reproducible.
Result<Graph> BuildDataset(DatasetId id, double scale = 1.0,
                           uint64_t seed = 42);

/// \brief Reads the PATHEST_SCALE environment variable (default 1.0).
double ScaleFromEnv();

}  // namespace pathest

#endif  // PATHEST_GEN_DATASETS_H_
