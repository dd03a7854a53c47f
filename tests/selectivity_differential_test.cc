// Seeded differential runner for the selectivity engine.
//
// Each seed draws one value per dimension (kDimensions): a graph shape
// (Erdős–Rényi at three densities, forest fire, preferential attachment,
// or a cycle, chain, star, complete or disjoint-union shape), a label
// distribution, |L|, k, threads, kernel, adjacency plane, pair guard and
// edge batch. On the drawn graph it checks, against the serial oracle of
// tests/oracles/selectivity_oracle.h:
//   * ComputeSelectivities: map and status equal the oracle's under the
//     drawn max_pairs_per_prefix, which some draws set low enough to abort;
//   * FusedExtender::ExtendAll and CountAll on every level-1 and level-2
//     pair set against the oracle's per-label join, element order included
//     under the sparse kernel (both emit in discovery order);
//   * a random add/remove batch, applied with PatchGraph and refreshed
//     with IncrementalSelectivities: the refresh equals a full build of the
//     patched graph, which equals the oracle's;
//   * RefreshSelectivities over a map of stale values with a random set of
//     roots rewrites exactly those roots' slices;
//   * progress and label_time fire once per run root, label_time first.
//
// The tier-1 run covers seeds [0, kSeedsPerRun), and those seeds must draw
// every pair of values of every two dimensions
// (TierOneSeedsDrawEveryPairOfValues). Under --gtest_repeat=N each
// repetition runs the next window of kSeedsPerRun seeds. Every failure
// prints its seed and all drawn values; a seed that once failed gets a
// line in kRegressionSeeds, which every run replays.

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "gen/generator.h"
#include "gen/label_assigner.h"
#include "graph/graph_builder.h"
#include "maint/incremental.h"
#include "oracles/selectivity_oracle.h"
#include "path/pair_set.h"
#include "path/selectivity.h"
#include "util/random.h"

namespace pathest {
namespace {

constexpr uint64_t kSeedsPerRun = 400;

// Seeds that once failed, replayed by every run: one line each, with the
// fault it caught. No seed has failed on the engine yet.
const std::vector<uint64_t> kRegressionSeeds = {
};

enum Dim : size_t {
  kGraph,
  kLabels,
  kNumLabels,
  kK,
  kThreads,
  kKernel,
  kPlane,
  kGuard,
  kBatch,
  kNumDims
};

struct Dimension {
  const char* name;
  std::vector<const char*> values;
};

const std::array<Dimension, kNumDims> kDimensions = {{
    {"graph",
     {"er-sparse", "er-mid", "er-dense", "forest-fire", "pref-attachment",
      "cycle", "chain", "star", "complete", "disjoint-union"}},
    {"labels", {"uniform", "zipf", "typed"}},
    {"num_labels", {"1", "2", "3", "5", "7"}},
    {"k", {"1", "2", "3", "4", "5"}},
    {"threads", {"1", "2", "4"}},
    {"kernel", {"auto", "sparse", "dense"}},
    {"plane", {"none", "dense"}},
    // old-max: the largest guarded value of the unguarded map, so the
    // first build passes and the refresh may trip; drawn: a guarded value
    // or one below it, which trips wherever that value sits.
    {"guard", {"none", "old-max", "drawn"}},
    {"batch", {"mixed", "empty-a-label", "empty"}},
}};

constexpr size_t kNumLabelValues[] = {1, 2, 3, 5, 7};
constexpr size_t kThreadValues[] = {1, 2, 4};
constexpr PairKernel kKernelValues[] = {PairKernel::kAuto, PairKernel::kSparse,
                                        PairKernel::kDense};
constexpr PlanePolicy kPlaneValues[] = {PlanePolicy::kNone,
                                        PlanePolicy::kDense};

using Draw = std::array<size_t, kNumDims>;

// The dimension values of a seed, the first draws of its stream.
Draw DrawDimensions(Rng* rng) {
  Draw draw;
  for (size_t d = 0; d < kNumDims; ++d) {
    draw[d] = rng->NextBounded(kDimensions[d].values.size());
  }
  return draw;
}

std::string Describe(uint64_t seed, const Draw& draw) {
  std::string out = "seed=" + std::to_string(seed);
  for (size_t d = 0; d < kNumDims; ++d) {
    out += std::string(" ") + kDimensions[d].name + "=" +
           kDimensions[d].values[draw[d]];
  }
  return out;
}

Graph BuildWithPlane(GraphBuilder* builder, PlanePolicy plane) {
  GraphBuildOptions options;
  options.plane = plane;
  auto built = builder->Build(options);
  PATHEST_CHECK(built.ok(), "graph build failed");
  return std::move(built).ValueOrDie();
}

Graph WithPlane(const Graph& g, PlanePolicy plane) {
  GraphBuilder builder;
  builder.Adopt(g.labels(), g.CollectEdges(), g.num_vertices());
  return BuildWithPlane(&builder, plane);
}

// The drawn graph: a generator's output or a structured shape, with its
// edge labels from `labels` and the drawn plane.
Graph MakeGraph(const Draw& draw, Rng* rng) {
  const size_t num_labels = kNumLabelValues[draw[kNumLabels]];
  std::unique_ptr<LabelAssigner> labels;
  switch (draw[kLabels]) {
    case 0:
      labels = std::make_unique<UniformLabelAssigner>(num_labels);
      break;
    case 1:
      labels = std::make_unique<ZipfLabelAssigner>(num_labels, 1.5,
                                                   rng->Next());
      break;
    default:
      labels = std::make_unique<TypedLabelAssigner>(num_labels, 3,
                                                    rng->Next());
      break;
  }
  const PlanePolicy plane = kPlaneValues[draw[kPlane]];
  const auto size = [rng](size_t lo, size_t hi) {
    return lo + static_cast<size_t>(rng->NextBounded(hi - lo + 1));
  };
  const uint64_t seed = rng->Next();
  Result<Graph> generated = Status::Internal("no generator drawn");
  if (draw[kGraph] <= 2) {
    ErdosRenyiParams params;
    params.seed = seed;
    if (draw[kGraph] == 0) {
      params.num_vertices = size(40, 150);
      params.num_edges = 2 * params.num_vertices;
    } else if (draw[kGraph] == 1) {
      params.num_vertices = size(20, 60);
      params.num_edges = 8 * params.num_vertices;
    } else {
      params.num_vertices = size(10, 30);
      params.num_edges = params.num_vertices * (params.num_vertices - 1) / 2;
    }
    generated = GenerateErdosRenyi(params, labels.get());
  } else if (draw[kGraph] == 3) {
    ForestFireParams params;
    params.num_vertices = size(40, 200);
    params.seed = seed;
    generated = GenerateForestFire(params, labels.get());
  } else if (draw[kGraph] == 4) {
    PrefAttachmentParams params;
    params.num_vertices = size(30, 150);
    params.num_edges = 3 * params.num_vertices;
    params.seed = seed;
    generated = GeneratePrefAttachment(params, labels.get());
  }
  if (draw[kGraph] <= 4) {
    PATHEST_CHECK(generated.ok(), "graph generation failed");
    return WithPlane(*generated, plane);
  }
  // Structured shapes (structured_graph_test's closed-form cases).
  GraphBuilder builder;
  for (const std::string& name : NumericLabelNames(num_labels)) {
    builder.AddLabel(name);
  }
  const auto edge = [&](VertexId s, VertexId t) {
    builder.AddEdge(s, labels->Assign(s, t, rng), t);
  };
  const auto cycle = [&](VertexId first, size_t n) {
    for (VertexId v = 0; v < n; ++v) {
      edge(first + v, first + static_cast<VertexId>((v + 1) % n));
    }
  };
  const auto chain = [&](VertexId first, size_t n) {
    for (VertexId v = 0; v + 1 < n; ++v) edge(first + v, first + v + 1);
  };
  const auto complete = [&](VertexId first, size_t n) {
    for (VertexId i = 0; i < n; ++i) {
      for (VertexId j = 0; j < n; ++j) {
        if (i != j) edge(first + i, first + j);
      }
    }
  };
  switch (draw[kGraph]) {
    case 5:
      cycle(0, size(3, 40));
      break;
    case 6:
      chain(0, size(2, 40));
      break;
    case 7:
      for (VertexId leaf = 1, n = static_cast<VertexId>(size(3, 24));
           leaf <= n; ++leaf) {
        edge(0, leaf);
        edge(leaf, 0);
      }
      break;
    case 8:
      complete(0, size(3, 12));
      break;
    default:
      cycle(0, 8);
      chain(10, size(2, 10));
      complete(20, size(3, 6));
      break;
  }
  return BuildWithPlane(&builder, plane);
}

// The drawn edge batch over `g`: a mix of genuine adds, adds of present
// edges, removes of present and absent edges and adds onto new vertices;
// every edge of one label removed; or nothing.
std::vector<maint::EdgeDelta> MakeBatch(size_t kind, const Graph& g,
                                        Rng* rng) {
  const std::vector<Edge> edges = g.CollectEdges();
  std::vector<maint::EdgeDelta> deltas;
  const auto vertex = [&] {
    return static_cast<VertexId>(rng->NextBounded(g.num_vertices()));
  };
  const auto label = [&] {
    return static_cast<LabelId>(rng->NextBounded(g.num_labels()));
  };
  if (kind == 1) {
    if (edges.empty()) return deltas;
    const LabelId emptied = edges[rng->NextBounded(edges.size())].label;
    for (const Edge& e : edges) {
      if (e.label == emptied) deltas.push_back({false, e.src, e.dst, e.label});
    }
  } else if (kind == 0) {
    const size_t count = 1 + rng->NextBounded(12);
    for (size_t i = 0; i < count; ++i) {
      const size_t shape = rng->NextBounded(edges.empty() ? 2 : 5);
      const Edge& present =
          edges.empty() ? Edge{} : edges[rng->NextBounded(edges.size())];
      const VertexId fresh = static_cast<VertexId>(g.num_vertices() + i);
      switch (shape) {
        case 0:
          deltas.push_back({true, vertex(), vertex(), label()});
          break;
        case 1:
          deltas.push_back({true, vertex(), fresh, label()});
          break;
        case 2:
          deltas.push_back({false, vertex(), vertex(), label()});
          break;
        case 3:
          deltas.push_back({true, present.src, present.dst, present.label});
          break;
        default:
          deltas.push_back({false, present.src, present.dst, present.label});
          break;
      }
    }
  }
  return deltas;
}

// Records progress / label_time calls (the engine serializes them).
struct CallbackLog {
  std::vector<std::pair<LabelId, bool>> events;  // (root, is progress)

  void Attach(SelectivityOptions* options) {
    events.clear();
    options->progress = [this](LabelId root) {
      events.push_back({root, true});
    };
    options->label_time = [this](LabelId root, double ms) {
      EXPECT_GE(ms, 0.0);
      events.push_back({root, false});
    };
  }

  // label_time then progress, once for each run root; returns the roots.
  std::vector<LabelId> Roots(const std::string& what) const {
    std::vector<LabelId> roots;
    EXPECT_EQ(events.size() % 2, 0u) << what;
    for (size_t i = 0; i + 1 < events.size(); i += 2) {
      EXPECT_FALSE(events[i].second) << what << ": progress before label_time";
      EXPECT_EQ(events[i + 1], std::make_pair(events[i].first, true)) << what;
      roots.push_back(events[i].first);
    }
    std::sort(roots.begin(), roots.end());
    EXPECT_EQ(std::adjacent_find(roots.begin(), roots.end()), roots.end())
        << what << ": a root fired twice";
    return roots;
  }
};

std::vector<LabelId> AllRoots(size_t num_labels) {
  std::vector<LabelId> roots(num_labels);
  for (LabelId l = 0; l < num_labels; ++l) roots[l] = l;
  return roots;
}

void ExpectSameMap(const SelectivityMap& got, const SelectivityMap& want,
                   const std::string& what) {
  ASSERT_EQ(got.values().size(), want.values().size()) << what;
  size_t diffs = 0;
  uint64_t first = 0;
  for (uint64_t i = got.values().size(); i-- > 0;) {
    if (got.values()[i] != want.values()[i]) {
      ++diffs;
      first = i;
    }
  }
  if (diffs == 0) return;
  ADD_FAILURE() << what << ": " << diffs << " entries differ; first at path "
                << want.space().CanonicalPath(first).ToIdString() << ": got "
                << got.values()[first] << ", want " << want.values()[first];
}

void ExpectSameResult(const Result<SelectivityMap>& got,
                      const Result<SelectivityMap>& want,
                      const std::string& what) {
  ASSERT_EQ(got.status().ToString(), want.status().ToString()) << what;
  if (!want.ok()) return;
  ExpectSameMap(*got, *want, what);
  EXPECT_EQ(got->Total(), want->Total()) << what;
  EXPECT_EQ(got->CountNonZero(), want->CountNonZero()) << what;
}

// ExtendAll on every level-1 and level-2 set must give the oracle's
// per-label join: the same sources and offsets, and the same targets in
// the same order under the sparse kernel, as the same set per group under
// the others (a dense group's targets come out ascending). CountAll must
// count what ExtendAll builds.
void ExpectExtendAllMatchesOracle(const Graph& g, PairKernel kernel) {
  const size_t num_labels = g.num_labels();
  FusedExtender fused(g.num_vertices(), num_labels);
  fused.Bind(g, kernel);
  std::vector<uint8_t> seen(g.num_vertices(), 0);
  std::vector<PairSet> children(num_labels);
  std::vector<PairSet> grandchildren(num_labels);
  std::vector<uint64_t> counts(num_labels);
  PairSet level1;
  PairSet expected;
  const auto check = [&](const PairSet& parent, const PairSet* got,
                         const std::string& where) {
    std::fill(counts.begin(), counts.end(), 0);
    fused.CountAll(parent, counts.data());
    for (LabelId l = 0; l < num_labels; ++l) {
      oracles::OracleJoin(g, parent, l, &seen, &expected);
      const PairSet& child = got[l];
      const std::string at = "ExtendAll at " + where + std::to_string(l);
      ASSERT_EQ(child.srcs, expected.srcs) << at;
      ASSERT_EQ(child.offsets, expected.offsets) << at;
      EXPECT_EQ(counts[l], child.size()) << at;
      if (kernel == PairKernel::kSparse) {
        ASSERT_EQ(child.targets, expected.targets) << at;
        continue;
      }
      for (size_t i = 0; i < child.srcs.size(); ++i) {
        const auto group = [i](const PairSet& set) {
          std::vector<VertexId> out(set.targets.begin() + set.offsets[i],
                                    set.targets.begin() + set.offsets[i + 1]);
          std::sort(out.begin(), out.end());
          return out;
        };
        ASSERT_EQ(group(child), group(expected)) << at << " group " << i;
      }
    }
  };
  for (LabelId root = 0; root < num_labels; ++root) {
    InitialPairSet(g, root, &level1);
    const PairSet oracle_level1 = oracles::OracleLabelPairs(g, root);
    ASSERT_EQ(level1.srcs, oracle_level1.srcs);
    ASSERT_EQ(level1.targets, oracle_level1.targets);
    fused.ExtendAll(level1, children.data());
    check(level1, children.data(), std::to_string(root) + "/");
    for (LabelId l = 0; l < num_labels; ++l) {
      fused.ExtendAll(children[l], grandchildren.data());
      check(children[l], grandchildren.data(),
            std::to_string(root) + "/" + std::to_string(l) + "/");
    }
  }
}

SelectivityMap Oracle(const Graph& g, size_t k) {
  auto map = oracles::ReferenceSelectivities(g, k);
  PATHEST_CHECK(map.ok(), "oracle failed");
  return std::move(map).ValueOrDie();
}

// The guarded values of `map`: lengths 1..max(1, k - 1).
std::vector<uint64_t> GuardedValues(const SelectivityMap& map) {
  const PathSpace& space = map.space();
  const size_t max_len = space.k() > 1 ? space.k() - 1 : 1;
  const uint64_t end =
      max_len < space.k() ? space.LengthOffset(max_len + 1) : space.size();
  std::vector<uint64_t> values;
  for (uint64_t i = 0; i < end; ++i) {
    if (map.values()[i] != 0) values.push_back(map.values()[i]);
  }
  return values;
}

// Whole-run tallies: the abort draws must really abort somewhere.
struct Tally {
  size_t full_aborts = 0;
  size_t refresh_aborts = 0;
  size_t refreshes = 0;
};

void RunSeed(uint64_t seed, Tally* tally) {
  Rng rng(seed);
  const Draw draw = DrawDimensions(&rng);
  SCOPED_TRACE(Describe(seed, draw));
  const size_t k = draw[kK] + 1;
  const Graph g = MakeGraph(draw, &rng);
  ASSERT_EQ(g.AdjacencyBitmaps().kind, draw[kPlane] == 1 ? PlaneKind::kDense
                                                         : PlaneKind::kNone);
  const SelectivityMap unguarded = Oracle(g, k);

  SelectivityOptions options;
  options.kernel = kKernelValues[draw[kKernel]];
  options.num_threads = kThreadValues[draw[kThreads]];
  const std::vector<uint64_t> guarded = GuardedValues(unguarded);
  if (draw[kGuard] == 1 && !guarded.empty()) {
    options.max_pairs_per_prefix =
        *std::max_element(guarded.begin(), guarded.end());
  } else if (draw[kGuard] == 2 && !guarded.empty()) {
    const uint64_t value = guarded[rng.NextBounded(guarded.size())];
    options.max_pairs_per_prefix =
        std::max<uint64_t>(1, value - rng.NextBounded(2));
  }
  const uint64_t guard = options.max_pairs_per_prefix;
  SCOPED_TRACE("max_pairs_per_prefix=" + std::to_string(guard));

  // The full build.
  CallbackLog log;
  log.Attach(&options);
  const auto full = ComputeSelectivities(g, k, options);
  ExpectSameResult(full, oracles::ReferenceSelectivities(g, k, guard),
                   "full build");
  EXPECT_EQ(log.Roots("full build"), AllRoots(g.num_labels()));
  tally->full_aborts += !full.ok();
  ExpectExtendAllMatchesOracle(g, options.kernel);
  for (int i = 0; i < 8; ++i) {
    const LabelPath path = unguarded.space().CanonicalPath(
        rng.NextBounded(unguarded.space().size()));
    auto f = oracles::EvaluatePathSelectivity(g, path);
    ASSERT_TRUE(f.ok());
    EXPECT_EQ(*f, unguarded.Get(path)) << path.ToIdString();
  }

  // The batch, refreshed from the full build where it passed the guard.
  const std::vector<maint::EdgeDelta> deltas =
      MakeBatch(draw[kBatch], g, &rng);
  SCOPED_TRACE("batch of " + std::to_string(deltas.size()) + " deltas");
  auto patched_raw = maint::PatchGraph(g, deltas);
  ASSERT_TRUE(patched_raw.ok()) << patched_raw.status().ToString();
  const Graph patched = WithPlane(*patched_raw, kPlaneValues[draw[kPlane]]);
  log.events.clear();
  const auto rebuilt = ComputeSelectivities(patched, k, options);
  ExpectSameResult(rebuilt, oracles::ReferenceSelectivities(patched, k, guard),
                   "full build of the patched graph");
  EXPECT_EQ(log.Roots("patched build"), AllRoots(g.num_labels()));
  if (full.ok()) {
    log.events.clear();
    maint::IncrementalStats stats;
    const auto refreshed = maint::IncrementalSelectivities(
        patched, *full, deltas, options, &stats);
    ExpectSameResult(refreshed, rebuilt, "refresh");
    EXPECT_EQ(log.Roots("refresh").size(), stats.touched_roots);
    EXPECT_LE(stats.dirty_tasks, stats.total_tasks);
    ++tally->refreshes;
    tally->refresh_aborts += !refreshed.ok();
  }

  // A driver run over stale values with a random set of roots rewrites
  // exactly their slices.
  constexpr uint64_t kStale = 777;
  std::vector<LabelId> roots;
  for (LabelId l = 0; l < patched.num_labels(); ++l) {
    if (rng.NextBool()) roots.push_back(l);
  }
  SelectivityMap expected = Oracle(patched, k);
  SelectivityMap stale(expected.space());
  for (uint64_t i = 0; i < stale.space().size(); ++i) {
    stale.SetByCanonicalIndex(i, kStale);
    const LabelId root = stale.space().CanonicalPath(i).label(0);
    if (!std::binary_search(roots.begin(), roots.end(), root)) {
      expected.SetByCanonicalIndex(i, kStale);
    }
  }
  options.max_pairs_per_prefix = 0;
  log.events.clear();
  ASSERT_TRUE(
      RefreshSelectivities(patched, roots, options, nullptr, &stale).ok());
  ExpectSameMap(stale, expected, "driver over stale values");
  EXPECT_EQ(log.Roots("driver over stale values"), roots);
}

TEST(SelectivityDifferentialTest, TierOneSeedsDrawEveryPairOfValues) {
  // {d1, value of d1, d2, value of d2} for every two dimensions d1 < d2.
  std::set<std::array<size_t, 4>> drawn;
  for (uint64_t seed = 0; seed < kSeedsPerRun; ++seed) {
    Rng rng(seed);
    const Draw draw = DrawDimensions(&rng);
    for (size_t d1 = 0; d1 < kNumDims; ++d1) {
      for (size_t d2 = d1 + 1; d2 < kNumDims; ++d2) {
        drawn.insert({d1, draw[d1], d2, draw[d2]});
      }
    }
  }
  for (size_t d1 = 0; d1 < kNumDims; ++d1) {
    for (size_t d2 = d1 + 1; d2 < kNumDims; ++d2) {
      for (size_t v1 = 0; v1 < kDimensions[d1].values.size(); ++v1) {
        for (size_t v2 = 0; v2 < kDimensions[d2].values.size(); ++v2) {
          EXPECT_TRUE(drawn.count({d1, v1, d2, v2}))
              << "no seed below " << kSeedsPerRun << " draws "
              << kDimensions[d1].name << "=" << kDimensions[d1].values[v1]
              << " with " << kDimensions[d2].name << "="
              << kDimensions[d2].values[v2];
        }
      }
    }
  }
}

TEST(SelectivityDifferentialTest, SeedWindow) {
  // The window counter lives for the whole process, so each
  // --gtest_repeat repetition draws fresh seeds; the first is tier-1's.
  static uint64_t window = 0;
  const uint64_t first = window++ * kSeedsPerRun;
  Tally tally;
  for (uint64_t seed = first; seed < first + kSeedsPerRun; ++seed) {
    RunSeed(seed, &tally);
  }
  // Some guard draws abort the first build and some abort only the refresh.
  EXPECT_GT(tally.full_aborts, 0u);
  EXPECT_GT(tally.refresh_aborts, 0u);
  EXPECT_GT(tally.refreshes, kSeedsPerRun / 2);
}

TEST(SelectivityDifferentialTest, RegressionSeeds) {
  Tally tally;
  for (uint64_t seed : kRegressionSeeds) RunSeed(seed, &tally);
}

}  // namespace
}  // namespace pathest
