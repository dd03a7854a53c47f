// The ingest determinism contract (graph_builder.h, graph_io.h): the
// counting-sort Build is bit-identical to the seed's global-sort
// BuildReference at every thread count — CSRs, vertex-major arrays, and
// plane — on generated ER and forest-fire graphs large enough to take the
// parallel path; the plane decision rule (DensePlanePays) at its slab-test
// boundary, at the byte cap and past size_t overflow, and on both sides on
// generated graphs; the chunked from_chars reader preserves the line-oriented istream
// semantics (skip lines, error line numbers, id range checks) and
// round-trips ~100k-edge graphs through the streaming writer.

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gen/datasets.h"
#include "gen/generator.h"
#include "gen/label_assigner.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "test_util.h"

namespace pathest {
namespace {

Graph ErdosRenyiGraph(size_t num_vertices, size_t num_edges,
                      size_t num_labels, uint64_t seed) {
  UniformLabelAssigner labels(num_labels);
  ErdosRenyiParams params;
  params.num_vertices = num_vertices;
  params.num_edges = num_edges;
  params.seed = seed;
  auto g = GenerateErdosRenyi(params, &labels);
  PATHEST_CHECK(g.ok(), "Erdős–Rényi generation failed");
  return std::move(g).ValueOrDie();
}

Graph ForestFireGraph(size_t num_vertices, size_t num_labels, uint64_t seed) {
  UniformLabelAssigner labels(num_labels);
  ForestFireParams params;
  params.num_vertices = num_vertices;
  params.seed = seed;
  auto g = GenerateForestFire(params, &labels);
  PATHEST_CHECK(g.ok(), "forest fire generation failed");
  return std::move(g).ValueOrDie();
}

// A builder loaded with `graph`'s exact edge multiset and label order.
GraphBuilder BuilderFrom(const Graph& graph) {
  GraphBuilder out;
  out.Adopt(graph.labels(), graph.CollectEdges(), graph.num_vertices());
  return out;
}

// Asserts Build at threads {1, 2, 4} is bit-identical to BuildReference,
// with and without reverse adjacency.
void ExpectBuildDeterminism(const Graph& source, bool expect_parallel) {
  for (bool with_reverse : {false, true}) {
    GraphBuilder builder = BuilderFrom(source);
    const auto reference = builder.BuildReference(with_reverse);
    ASSERT_TRUE(reference.ok());
    for (size_t threads : {1u, 2u, 4u}) {
      GraphBuildOptions options;
      options.with_reverse = with_reverse;
      options.num_threads = threads;
      GraphBuildStats stats;
      const auto built = builder.Build(options, &stats);
      ASSERT_TRUE(built.ok());
      EXPECT_TRUE(built->IdenticalTo(*reference))
          << "threads=" << threads << " reverse=" << with_reverse;
      if (expect_parallel) {
        EXPECT_EQ(stats.num_threads, threads) << "parallel path not taken";
      }
    }
  }
}

TEST(GraphBuildTest, ErdosRenyiDeterminismGrid) {
  // 40k edges is past kParallelBuildMinEdges, so threads {2, 4} genuinely
  // exercise the fan-out (asserted via the resolved stats thread count).
  ExpectBuildDeterminism(ErdosRenyiGraph(2000, 40000, 5, 11),
                         /*expect_parallel=*/true);
}

TEST(GraphBuildTest, ForestFireDeterminismGrid) {
  ExpectBuildDeterminism(ForestFireGraph(2500, 4, 23),
                         /*expect_parallel=*/false);
}

TEST(GraphBuildTest, DuplicateEdgesDedupIdentically) {
  // Duplicates must vanish inside the (label, src) buckets exactly as the
  // global sort + unique removes them.
  const Graph source = ErdosRenyiGraph(1500, 30000, 4, 7);
  std::vector<Edge> edges = source.CollectEdges();
  const size_t original = edges.size();
  for (size_t i = 0; i < original; i += 3) edges.push_back(edges[i]);
  GraphBuilder builder;
  builder.Adopt(source.labels(), std::move(edges), source.num_vertices());
  const auto reference = builder.BuildReference(true);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(reference->num_edges(), source.num_edges());
  for (size_t threads : {1u, 4u}) {
    GraphBuildOptions options;
    options.with_reverse = true;
    options.num_threads = threads;
    const auto built = builder.Build(options);
    ASSERT_TRUE(built.ok());
    EXPECT_TRUE(built->IdenticalTo(*reference)) << "threads=" << threads;
  }
}

TEST(GraphBuildTest, AdoptMatchesIncrementalAdds) {
  const Graph source = testing_util::SmallGraph();
  GraphBuilder incremental;
  for (const std::string& name : source.labels().names()) {
    incremental.AddLabel(name);
  }
  for (const Edge& e : source.CollectEdges()) {
    incremental.AddEdge(e.src, e.label, e.dst);
  }
  incremental.SetNumVertices(source.num_vertices());
  GraphBuilder adopted;
  adopted.Adopt(source.labels(), source.CollectEdges(),
                source.num_vertices());
  const auto a = incremental.Build(true);
  const auto b = adopted.Build(true);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->IdenticalTo(*b));
}

TEST(GraphBuildTest, PlanePolicyForcing) {
  const Graph source = ErdosRenyiGraph(150, 1200, 3, 5);
  GraphBuilder builder = BuilderFrom(source);
  GraphBuildStats stats;
  GraphBuildOptions options;
  options.plane = PlanePolicy::kNone;
  ASSERT_TRUE(builder.Build(options, &stats).ok());
  EXPECT_EQ(stats.plane_kind, PlaneKind::kNone);
  options.plane = PlanePolicy::kDense;
  ASSERT_TRUE(builder.Build(options, &stats).ok());
  EXPECT_EQ(stats.plane_kind, PlaneKind::kDense);
  // kAuto picks dense for this small, dense-enough graph.
  options.plane = PlanePolicy::kAuto;
  ASSERT_TRUE(builder.Build(options, &stats).ok());
  EXPECT_EQ(stats.plane_kind, PlaneKind::kDense);
}

TEST(GraphBuildTest, DensePlanePaysAtItsBoundaries) {
  // Slab test: |E| · kPlaneRowWinFactor >= |V| · |L| · ⌈|V|/64⌉, equality
  // passing. 64 vertices, 1 label: 64 plane words, so 16 edges.
  EXPECT_TRUE(DensePlanePays(64, 16, 1));
  EXPECT_FALSE(DensePlanePays(64, 15, 1));
  // 100 vertices, 3 labels, 2-word rows: 600 words, so 150 edges.
  EXPECT_TRUE(DensePlanePays(100, 150, 3));
  EXPECT_FALSE(DensePlanePays(100, 149, 3));
  // Byte cap: 4096 · 16 · 64 words is exactly kAdjacencyPlaneMaxBytes.
  ASSERT_EQ(size_t{4096} * 16 * 64 * sizeof(uint64_t),
            kAdjacencyPlaneMaxBytes);
  EXPECT_TRUE(DensePlaneFits(4096, 16));
  EXPECT_TRUE(DensePlanePays(4096, size_t{4096} * 16 * 16, 16));
  EXPECT_FALSE(DensePlanePays(4096, size_t{4096} * 16 * 16 - 1, 16));
  EXPECT_FALSE(DensePlaneFits(4096, 17));
  EXPECT_FALSE(DensePlaneFits(4097, 16));
  EXPECT_FALSE(DensePlanePays(4096, SIZE_MAX, 17));
  // Empty shapes never get a plane.
  EXPECT_FALSE(DensePlanePays(0, 0, 1));
  EXPECT_FALSE(DensePlanePays(10, 100, 0));
  // |V| · |L| · stride wraps a 64-bit size_t here: 2^33 vertices have
  // 2^27-word rows, so |V| · stride alone is 2^60.
  const size_t huge = size_t{1} << 33;
  EXPECT_FALSE(DensePlaneFits(huge, 1u << 8));
  EXPECT_FALSE(DensePlanePays(huge, SIZE_MAX, 1u << 8));
  EXPECT_FALSE(DensePlanePays(SIZE_MAX, SIZE_MAX, SIZE_MAX));
}

// One of the paper's dataset stand-ins at `scale`.
Graph StandIn(DatasetId id, double scale) {
  auto g = BuildDataset(id, scale, 42);
  PATHEST_CHECK(g.ok(), "stand-in generation failed");
  return std::move(g).ValueOrDie();
}

// The plane kind Build gives `source` under kAuto.
PlaneKind AutoPlaneKind(const Graph& source) {
  GraphBuilder builder = BuilderFrom(source);
  GraphBuildStats stats;
  const auto built = builder.Build(GraphBuildOptions{}, &stats);
  PATHEST_CHECK(built.ok(), "plane-rule build failed");
  EXPECT_EQ(built->AdjacencyBitmaps().kind, stats.plane_kind);
  return stats.plane_kind;
}

TEST(GraphBuildTest, AutoPlaneFollowsSlabRule) {
  // The moreno-like graphs fit the cap, but their mean degree falls far
  // short of the slab test: no plane. Full size is the offline build of
  // the perfbench workloads.
  for (double scale : {1.0, 0.25}) {
    const Graph moreno = StandIn(DatasetId::kMorenoHealth, scale);
    EXPECT_TRUE(DensePlaneFits(moreno.num_vertices(), moreno.num_labels()));
    EXPECT_EQ(AutoPlaneKind(moreno), PlaneKind::kNone) << "scale=" << scale;
  }
  // The other stand-ins get none either, by the slab test (snap-er) or
  // the cap (dbpedia, snap-ff).
  for (DatasetId id :
       {DatasetId::kDbpedia, DatasetId::kSnapEr, DatasetId::kSnapFf}) {
    EXPECT_EQ(AutoPlaneKind(StandIn(id, 0.25)), PlaneKind::kNone)
        << "dataset=" << static_cast<int>(id);
  }
  // Degree 12 over 3 labels on 200 vertices: 2400 · 4 >= 200 · 3 · 4.
  EXPECT_EQ(AutoPlaneKind(ErdosRenyiGraph(200, 2400, 3, 29)),
            PlaneKind::kDense);
  // bench_micro_selectivity's er-dense graph, where the plane pays ~2×:
  // degree 30 over 3 labels on 2000 vertices, ~60000 · 4 >= 2000 · 3 · 32.
  EXPECT_EQ(AutoPlaneKind(ErdosRenyiGraph(2000, 60000, 3, 42)),
            PlaneKind::kDense);
}

TEST(GraphBuildTest, OverCapGraphGetsNoPlane) {
  // 20000 vertices over 2 labels need 2 · 20000 · 313 words, ~3× the cap:
  // no plane under kAuto, and none even when forced dense.
  GraphBuilder builder;
  builder.AddLabel("a");
  builder.AddLabel("b");
  for (VertexId v = 0; v + 1 < 20000; v += 2) {
    builder.AddEdge(v, v % 4 == 0 ? 0 : 1, v + 1);
  }
  ASSERT_FALSE(DensePlaneFits(20000, 2));
  for (PlanePolicy policy : {PlanePolicy::kAuto, PlanePolicy::kDense}) {
    GraphBuildOptions options;
    options.plane = policy;
    GraphBuildStats stats;
    const auto built = builder.Build(options, &stats);
    ASSERT_TRUE(built.ok());
    EXPECT_EQ(stats.plane_kind, PlaneKind::kNone);
    EXPECT_EQ(stats.plane_bytes, 0u);
    EXPECT_EQ(built->AdjacencyBitmaps().rows, nullptr);
  }
  const auto reference = builder.BuildReference();
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(reference->AdjacencyBitmaps().kind, PlaneKind::kNone);
}

TEST(GraphBuildTest, ReferenceAppliesTheSameRule) {
  // Both graphs fit the cap, so only the slab test tells them apart: it
  // keeps the plane on the ER graph alone. Build and BuildReference must
  // agree on both, plane included.
  const Graph moreno = StandIn(DatasetId::kMorenoHealth, 0.25);
  const Graph er = ErdosRenyiGraph(200, 2400, 3, 29);
  for (const Graph* source : {&moreno, &er}) {
    ASSERT_TRUE(DensePlaneFits(source->num_vertices(), source->num_labels()));
    GraphBuilder builder = BuilderFrom(*source);
    const auto reference = builder.BuildReference();
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(reference->AdjacencyBitmaps().kind,
              source == &er ? PlaneKind::kDense : PlaneKind::kNone);
    for (size_t threads : {1u, 2u, 4u}) {
      GraphBuildOptions options;
      options.num_threads = threads;
      const auto built = builder.Build(options);
      ASSERT_TRUE(built.ok());
      EXPECT_TRUE(built->IdenticalTo(*reference)) << "threads=" << threads;
    }
  }
}

TEST(GraphBuildTest, StreamingWriterRoundTripsLargeGraph) {
  // ~100k edges through WriteGraphText -> ReadGraphText: the streamed
  // output and the chunked parallel parse must reproduce the graph
  // bit-identically (the text is > 1 MB, so threads 4 takes the
  // multi-chunk path).
  const Graph source = ErdosRenyiGraph(5000, 100000, 8, 3);
  std::ostringstream out;
  ASSERT_TRUE(WriteGraphText(source, &out).ok());
  const std::string text = out.str();
  ASSERT_GT(text.size(), 1u << 20);
  for (size_t threads : {1u, 4u}) {
    std::istringstream in(text);
    GraphLoadOptions options;
    options.num_threads = threads;
    GraphLoadStats stats;
    const auto loaded = ReadGraphText(&in, options, &stats);
    ASSERT_TRUE(loaded.ok());
    EXPECT_TRUE(loaded->IdenticalTo(source)) << "threads=" << threads;
    if (threads == 4) EXPECT_GT(stats.num_chunks, 1u);
  }
}

TEST(GraphBuildTest, StreamingWriterMatchesCollectEdgesOrder) {
  const Graph g = testing_util::SmallGraph();
  std::ostringstream streamed;
  ASSERT_TRUE(WriteGraphText(g, &streamed).ok());
  std::ostringstream collected;
  collected << "# pathest edge-list v1: <src> <label> <dst>\n";
  for (const Edge& e : g.CollectEdges()) {
    collected << e.src << ' ' << g.labels().Name(e.label) << ' ' << e.dst
              << '\n';
  }
  EXPECT_EQ(streamed.str(), collected.str());
}

// Loads `text` through the chunked reader at 4 threads, padding it past
// the serial-parse cutoff with trailing comment lines so the parallel
// path is what's exercised.
Result<Graph> ParseParallel(std::string text) {
  while (text.size() < (1u << 20) + 1024) {
    text += "# padding comment line to push the input past the serial "
            "parse cutoff\n";
  }
  std::istringstream in(text);
  GraphLoadOptions options;
  options.num_threads = 4;
  return ReadGraphText(&in, options);
}

TEST(GraphBuildTest, ParallelReaderPreservesErrorLines) {
  // Earliest malformed line wins, by its exact line number and
  // comment-stripped text — even when a later chunk also fails.
  std::string text = "0 a 1\n1 b 2\n";
  text += "2 oops\n";  // line 3: missing dst
  for (int i = 0; i < 40000; ++i) text += "3 c 4\n";
  text += "5 also bad\n";
  auto result = ParseParallel(text);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().ToString(),
            "IOError: malformed edge at line 3: '2 oops'");

  auto range = ParseParallel("0 a 1\n7 x 4294967296\n");
  ASSERT_FALSE(range.ok());
  EXPECT_EQ(range.status().ToString(),
            "OutOfRange: vertex id exceeds 32 bits at line 2");
}

TEST(GraphBuildTest, ParallelReaderKeepsIstreamLineSemantics) {
  // Skipped lines (blank, comment, non-numeric or overflowing first
  // token), trailing junk after the dst, and '#' comment stripping must
  // all match the line-oriented istream reader.
  const std::string text =
      "# full comment line\n"
      "\n"
      "   \t \n"
      "junk-first-token a 1\n"
      "99999999999999999999999 a 1\n"
      "0 a 1 trailing junk ignored\n"
      "1 b 2   # inline comment\n"
      "+2 a 0\n";
  auto graph = ParseParallel(text);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_edges(), 3u);
  EXPECT_EQ(graph->num_vertices(), 3u);
  ASSERT_EQ(graph->num_labels(), 2u);
  EXPECT_EQ(graph->labels().Name(0), "a");  // first-appearance order
  EXPECT_EQ(graph->labels().Name(1), "b");
  const auto a = graph->labels().Find("a");
  ASSERT_TRUE(a.ok());
  const auto out0 = graph->OutNeighbors(0, *a);
  ASSERT_EQ(out0.size(), 1u);
  EXPECT_EQ(out0[0], 1u);
}

}  // namespace
}  // namespace pathest
