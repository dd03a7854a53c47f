// Unit tests for the labeled graph, builder, IO, and stats.

#include <bit>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "test_util.h"

namespace pathest {
namespace {

TEST(LabelDictionaryTest, InternIsIdempotent) {
  LabelDictionary dict;
  LabelId a = dict.Intern("knows");
  LabelId b = dict.Intern("likes");
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.Intern("knows"), a);
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.Name(a), "knows");
}

TEST(LabelDictionaryTest, FindUnknownFails) {
  LabelDictionary dict;
  dict.Intern("a");
  auto missing = dict.Find("nope");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(GraphBuilderTest, BuildsAdjacency) {
  Graph g = testing_util::SmallGraph();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_labels(), 3u);
  EXPECT_EQ(g.num_edges(), 6u);

  LabelId a = *g.labels().Find("a");
  LabelId b = *g.labels().Find("b");
  auto n0a = g.OutNeighbors(0, a);
  ASSERT_EQ(n0a.size(), 2u);
  EXPECT_EQ(n0a[0], 1u);
  EXPECT_EQ(n0a[1], 2u);
  EXPECT_TRUE(g.OutNeighbors(0, b).empty());
  EXPECT_EQ(g.OutNeighbors(1, b).size(), 1u);
}

TEST(GraphBuilderTest, DeduplicatesParallelEdges) {
  GraphBuilder builder;
  builder.AddEdge(0, "x", 1);
  builder.AddEdge(0, "x", 1);  // duplicate triple
  builder.AddEdge(0, "y", 1);  // same pair, different label: kept
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 2u);
}

TEST(GraphBuilderTest, SetNumVerticesReservesIsolated) {
  GraphBuilder builder;
  builder.AddEdge(0, "x", 1);
  builder.SetNumVertices(10);
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_vertices(), 10u);
  EXPECT_TRUE(g->OutNeighbors(9, 0).empty());
}

TEST(GraphBuilderTest, ReverseAdjacency) {
  Graph g = testing_util::SmallGraph();
  ASSERT_TRUE(g.has_reverse());
  LabelId b = *g.labels().Find("b");
  auto in3b = g.InNeighbors(3, b);
  ASSERT_EQ(in3b.size(), 2u);
  EXPECT_EQ(in3b[0], 1u);
  EXPECT_EQ(in3b[1], 2u);
}

TEST(GraphBuilderTest, NoReverseByDefault) {
  GraphBuilder builder;
  builder.AddEdge(0, "x", 1);
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_FALSE(g->has_reverse());
}

TEST(GraphTest, LabelCardinality) {
  Graph g = testing_util::SmallGraph();
  EXPECT_EQ(g.LabelCardinality(*g.labels().Find("a")), 3u);
  EXPECT_EQ(g.LabelCardinality(*g.labels().Find("b")), 2u);
  EXPECT_EQ(g.LabelCardinality(*g.labels().Find("c")), 1u);
}

TEST(GraphTest, CollectEdgesRoundTrips) {
  Graph g = testing_util::SmallGraph();
  auto edges = g.CollectEdges();
  EXPECT_EQ(edges.size(), g.num_edges());
  GraphBuilder rebuild;
  for (const Edge& e : edges) {
    rebuild.AddEdge(e.src, g.labels().Name(e.label), e.dst);
  }
  auto g2 = rebuild.Build();
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(g2->num_edges(), g.num_edges());
}

TEST(GraphIoTest, WriteThenReadRoundTrips) {
  Graph g = testing_util::SmallGraph();
  std::ostringstream out;
  ASSERT_TRUE(WriteGraphText(g, &out).ok());
  std::istringstream in(out.str());
  auto g2 = ReadGraphText(&in);
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(g2->num_edges(), g.num_edges());
  EXPECT_EQ(g2->num_vertices(), g.num_vertices());
  EXPECT_EQ(g2->num_labels(), g.num_labels());
}

TEST(GraphIoTest, IgnoresCommentsAndBlanks) {
  std::istringstream in(
      "# header comment\n"
      "\n"
      "0 knows 1  # trailing comment\n"
      "1 knows 2\n");
  auto g = ReadGraphText(&in);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 2u);
}

TEST(GraphIoTest, RejectsMalformedLine) {
  std::istringstream in("0 knows\n");
  auto g = ReadGraphText(&in);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIOError);
}

TEST(GraphIoTest, MissingFileFails) {
  auto g = LoadGraphFile("/nonexistent/path/graph.txt");
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIOError);
}

TEST(GraphStatsTest, ComputesTable3Columns) {
  Graph g = testing_util::SmallGraph();
  GraphStats stats = ComputeGraphStats(g);
  EXPECT_EQ(stats.num_vertices, 4u);
  EXPECT_EQ(stats.num_edges, 6u);
  EXPECT_EQ(stats.num_labels, 3u);
  EXPECT_DOUBLE_EQ(stats.mean_out_degree, 6.0 / 4.0);
  EXPECT_EQ(stats.max_label_out_degree, 2u);
  EXPECT_EQ(stats.num_sink_vertices, 0u);
  std::string text = FormatGraphStats(g, stats);
  EXPECT_NE(text.find("vertices: 4"), std::string::npos);
  EXPECT_NE(text.find("a: 3"), std::string::npos);
}

TEST(GraphStatsTest, CountsSinks) {
  GraphBuilder builder;
  builder.AddEdge(0, "x", 1);
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  GraphStats stats = ComputeGraphStats(*g);
  EXPECT_EQ(stats.num_sink_vertices, 1u);  // vertex 1
}

// Cross-checks the vertex-major, label-segmented view against the
// per-label CSR: every (vertex, label) cell with edges must appear as
// exactly one segment whose targets equal OutNeighbors, labels ascending
// within a vertex, with no extra segments.
TEST(GraphTest, VertexMajorViewMatchesPerLabelCsr) {
  Graph g = testing_util::SmallGraph();
  const Graph::VertexMajorView vm = g.VertexMajor();
  size_t segments_seen = 0;
  uint64_t targets_seen = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    LabelId prev_label = 0;
    for (uint64_t s = vm.seg_offsets[v]; s < vm.seg_offsets[v + 1]; ++s) {
      const LabelId l = vm.seg_labels[s];
      if (s > vm.seg_offsets[v]) EXPECT_LT(prev_label, l) << "v=" << v;
      prev_label = l;
      auto expected = g.OutNeighbors(v, l);
      const uint64_t begin = vm.tgt_offsets[s];
      const uint64_t end = vm.tgt_offsets[s + 1];
      ASSERT_EQ(end - begin, expected.size()) << "v=" << v << " l=" << l;
      for (uint64_t e = begin; e < end; ++e) {
        EXPECT_EQ(vm.targets[e], expected[e - begin]) << "v=" << v;
      }
      ++segments_seen;
      targets_seen += end - begin;
    }
    // No cell with edges may be missing from the directory.
    for (LabelId l = 0; l < g.num_labels(); ++l) {
      if (g.OutNeighbors(v, l).empty()) continue;
      bool found = false;
      for (uint64_t s = vm.seg_offsets[v]; s < vm.seg_offsets[v + 1]; ++s) {
        found |= vm.seg_labels[s] == l;
      }
      EXPECT_TRUE(found) << "missing segment v=" << v << " l=" << l;
    }
  }
  EXPECT_EQ(targets_seen, g.num_edges());
  EXPECT_GT(segments_seen, 0u);
}

// The packed edge keys re-encode the vertex-major edges one for one:
// key >> shift is the target, key & mask the segment's label, and the
// per-vertex offsets are the vertex-major edge ranges. Both builders
// produce them, and only while |V| · 2^⌈log₂|L|⌉ fits the key budget.
TEST(GraphTest, PackedEdgesMatchVertexMajor) {
  for (bool reference : {false, true}) {
    GraphBuilder builder;
    const Graph small = testing_util::SmallGraph();
    builder.Adopt(small.labels(), small.CollectEdges(), small.num_vertices());
    auto built = reference ? builder.BuildReference() : builder.Build();
    ASSERT_TRUE(built.ok());
    const Graph& g = *built;
    ASSERT_TRUE(g.has_packed_edges());
    const Graph::PackedEdgeView packed = g.PackedEdges();
    EXPECT_EQ(packed.label_shift, PackedLabelShift(g.num_labels()));
    EXPECT_EQ(size_t{1} << packed.label_shift,
              std::bit_ceil(g.num_labels()));
    const uint32_t mask = (uint32_t{1} << packed.label_shift) - 1;
    const Graph::VertexMajorView vm = g.VertexMajor();
    for (VertexId v = 0; v <= g.num_vertices(); ++v) {
      EXPECT_EQ(packed.edge_offsets[v], vm.tgt_offsets[vm.seg_offsets[v]]);
    }
    for (uint64_t s = 0; s < vm.seg_offsets[g.num_vertices()]; ++s) {
      for (uint64_t e = vm.tgt_offsets[s]; e < vm.tgt_offsets[s + 1]; ++e) {
        EXPECT_EQ(packed.keys[e] >> packed.label_shift, vm.targets[e]);
        EXPECT_EQ(packed.keys[e] & mask, vm.seg_labels[s]);
      }
    }
  }
  // 4 labels pack into 2 bits: the budget admits kPackedKeyMaxEntries / 4
  // vertices, and not one more.
  const size_t fit = kPackedKeyMaxEntries / 4;
  EXPECT_TRUE(PackedKeysFit(fit, 4));
  EXPECT_FALSE(PackedKeysFit(fit + 1, 4));
  EXPECT_TRUE(PackedKeysFit(fit + 1, 2));
  EXPECT_FALSE(PackedKeysFit(10, 0));
  GraphBuilder wide;
  for (const char* name : {"a", "b", "c", "d"}) wide.AddLabel(name);
  wide.AddEdge(0, 0, 1);
  wide.SetNumVertices(fit + 1);
  auto over = wide.Build();
  ASSERT_TRUE(over.ok());
  EXPECT_FALSE(over->has_packed_edges());
}

TEST(GraphTest, AdjacencyBitmapPlaneMatchesCsr) {
  // Forced dense: this sparse graph fails the slab test (DensePlanePays),
  // so kAuto would build it without a plane.
  const Graph source =
      testing_util::GraphWithCardinalities({{"p", 40}, {"q", 9}});
  GraphBuilder builder;
  builder.Adopt(source.labels(), source.CollectEdges(),
                source.num_vertices());
  GraphBuildOptions options;
  options.plane = PlanePolicy::kDense;
  auto built = builder.Build(options);
  ASSERT_TRUE(built.ok());
  const Graph& g = *built;
  const Graph::AdjacencyPlane plane = g.AdjacencyBitmaps();
  ASSERT_NE(plane.rows, nullptr);
  ASSERT_EQ(plane.stride_words, (g.num_vertices() + 63) / 64);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (LabelId l = 0; l < g.num_labels(); ++l) {
      const uint64_t* row =
          plane.rows +
          (static_cast<size_t>(v) * g.num_labels() + l) * plane.stride_words;
      std::vector<VertexId> from_row;
      for (size_t w = 0; w < plane.stride_words; ++w) {
        uint64_t word = row[w];
        while (word != 0) {
          from_row.push_back(static_cast<VertexId>(
              (w << 6) + static_cast<size_t>(std::countr_zero(word))));
          word &= word - 1;
        }
      }
      auto expected = g.OutNeighbors(v, l);
      ASSERT_EQ(from_row.size(), expected.size()) << "v=" << v << " l=" << l;
      for (size_t i = 0; i < from_row.size(); ++i) {
        EXPECT_EQ(from_row[i], expected[i]) << "v=" << v << " l=" << l;
      }
    }
  }
}

TEST(TestUtilTest, GraphWithCardinalitiesIsExact) {
  Graph g = testing_util::GraphWithCardinalities({{"p", 7}, {"q", 3}});
  EXPECT_EQ(g.LabelCardinality(*g.labels().Find("p")), 7u);
  EXPECT_EQ(g.LabelCardinality(*g.labels().Find("q")), 3u);
  EXPECT_EQ(g.num_edges(), 10u);
}

}  // namespace
}  // namespace pathest
