// Tests for src/graph/graph.h: construction, invariants, adjacency.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "graph/fault_mask.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace ftspan {
namespace {

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.n(), 0u);
  EXPECT_EQ(g.m(), 0u);
  EXPECT_FALSE(g.weighted());
}

TEST(Graph, AddEdgeBasics) {
  Graph g(4);
  const EdgeId e = g.add_edge(0, 1);
  EXPECT_EQ(e, 0u);
  EXPECT_EQ(g.m(), 1u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));  // undirected
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.edge(e).u, 0u);
  EXPECT_EQ(g.edge(e).v, 1u);
  EXPECT_DOUBLE_EQ(g.edge(e).w, 1.0);
}

TEST(Graph, RejectsSelfLoop) {
  Graph g(3);
  EXPECT_THROW(g.add_edge(1, 1), std::invalid_argument);
}

TEST(Graph, RejectsParallelEdge) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_THROW(g.add_edge(0, 1), std::invalid_argument);
  EXPECT_THROW(g.add_edge(1, 0), std::invalid_argument);  // same edge reversed
}

TEST(Graph, RejectsOutOfRangeEndpoint) {
  Graph g(3);
  EXPECT_THROW(g.add_edge(0, 3), std::invalid_argument);
  EXPECT_THROW(g.add_edge(7, 1), std::invalid_argument);
}

TEST(Graph, RejectsBadWeights) {
  Graph g(3, /*weighted=*/true);
  EXPECT_THROW(g.add_edge(0, 1, -1.0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 1, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 1, std::nan("")), std::invalid_argument);
}

TEST(Graph, UnweightedGraphRequiresUnitWeight) {
  Graph g(3, /*weighted=*/false);
  EXPECT_THROW(g.add_edge(0, 1, 2.0), std::invalid_argument);
  EXPECT_NO_THROW(g.add_edge(0, 1, 1.0));
}

TEST(Graph, WeightedGraphKeepsWeights) {
  Graph g(3, /*weighted=*/true);
  const EdgeId e = g.add_edge(0, 2, 3.5);
  EXPECT_DOUBLE_EQ(g.edge(e).w, 3.5);
  EXPECT_DOUBLE_EQ(g.total_weight(), 3.5);
}

TEST(Graph, EnsureEdgeIsIdempotent) {
  Graph g(3);
  const EdgeId first = g.ensure_edge(0, 1);
  const EdgeId second = g.ensure_edge(1, 0);
  EXPECT_EQ(first, second);
  EXPECT_EQ(g.m(), 1u);
}

TEST(Graph, FindEdgeReturnsId) {
  Graph g(5);
  g.add_edge(0, 1);
  const EdgeId e = g.add_edge(2, 4);
  EXPECT_EQ(g.find_edge(4, 2), std::optional<EdgeId>(e));
  EXPECT_EQ(g.find_edge(0, 4), std::nullopt);
}

TEST(Graph, NeighborsAndDegrees) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  g.add_edge(1, 2);
  EXPECT_EQ(g.degree(0), 3u);
  EXPECT_EQ(g.degree(3), 1u);
  EXPECT_EQ(g.max_degree(), 3u);
  std::size_t arc_count = 0;
  for (const auto& arc : g.neighbors(0)) {
    EXPECT_NE(arc.to, 0u);
    ++arc_count;
  }
  EXPECT_EQ(arc_count, 3u);
}

TEST(Graph, ArcsCarryEdgeIdsAndWeights) {
  Graph g(3, true);
  const EdgeId e = g.add_edge(1, 2, 2.5);
  bool found = false;
  for (const auto& arc : g.neighbors(2)) {
    if (arc.to == 1) {
      EXPECT_EQ(arc.edge, e);
      EXPECT_DOUBLE_EQ(arc.w, 2.5);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Graph, FromEdgesBuildsEverything) {
  const std::vector<Edge> edges{{0, 1, 1.0}, {1, 2, 1.0}, {2, 0, 1.0}};
  const Graph g = Graph::from_edges(3, edges);
  EXPECT_EQ(g.n(), 3u);
  EXPECT_EQ(g.m(), 3u);
  EXPECT_TRUE(g.has_edge(2, 0));
}

TEST(Graph, EdgeIdOutOfRangeThrows) {
  Graph g(2);
  g.add_edge(0, 1);
  EXPECT_THROW((void)g.edge(1), std::invalid_argument);
  EXPECT_THROW((void)g.degree(5), std::invalid_argument);
  EXPECT_THROW((void)g.neighbors(5), std::invalid_argument);
}

TEST(Graph, SummaryMentionsSizes) {
  Graph g(7, true);
  g.add_edge(0, 1, 2.0);
  const auto s = g.summary();
  EXPECT_NE(s.find("n=7"), std::string::npos);
  EXPECT_NE(s.find("m=1"), std::string::npos);
  EXPECT_NE(s.find("weighted"), std::string::npos);
}

TEST(Graph, EdgesSpanIsInsertionOrdered) {
  Graph g(4);
  g.add_edge(2, 3);
  g.add_edge(0, 1);
  EXPECT_EQ(g.edges()[0].u, 2u);
  EXPECT_EQ(g.edges()[1].u, 0u);
}

// ------------------------------------------------------------------ Mask

TEST(Mask, SetTestReset) {
  Mask m(10);
  EXPECT_FALSE(m.test(3));
  m.set(3);
  EXPECT_TRUE(m.test(3));
  m.reset(3);
  EXPECT_FALSE(m.test(3));
}

TEST(Mask, SetAllAndCount) {
  Mask m(10);
  const std::vector<std::uint32_t> ids{1, 4, 7};
  m.set_all(ids);
  EXPECT_EQ(m.count(), 3u);
  m.clear();
  EXPECT_EQ(m.count(), 0u);
}

TEST(ScratchMask, TouchedTracking) {
  ScratchMask m(10);
  m.set(2);
  m.set(5);
  m.set(2);  // idempotent
  EXPECT_EQ(m.touched().size(), 2u);
  m.reset_touched();
  EXPECT_FALSE(m.test(2));
  EXPECT_FALSE(m.test(5));
  EXPECT_EQ(m.touched().size(), 0u);
}

TEST(ScratchMask, EnsureUniverseGrows) {
  ScratchMask m(2);
  m.ensure_universe(8);
  EXPECT_EQ(m.universe(), 8u);
  m.set(7);
  EXPECT_TRUE(m.test(7));
  m.ensure_universe(4);  // never shrinks
  EXPECT_EQ(m.universe(), 8u);
}

TEST(ScratchMask, ClearInLifoOrder) {
  ScratchMask m(10);
  m.set(2);
  m.set(5);
  m.set(8);
  m.clear(8);  // LIFO: pops the touched stack
  EXPECT_FALSE(m.test(8));
  EXPECT_EQ(m.touched().size(), 2u);
  m.clear(5);
  m.clear(2);
  EXPECT_EQ(m.touched().size(), 0u);
  EXPECT_FALSE(m.test(2));
  EXPECT_FALSE(m.test(5));
}

TEST(ScratchMask, ClearOutOfOrderStillCorrect) {
  ScratchMask m(10);
  m.set(2);
  m.set(5);
  m.set(8);
  m.clear(5);  // middle of the touched list
  EXPECT_FALSE(m.test(5));
  EXPECT_TRUE(m.test(2));
  EXPECT_TRUE(m.test(8));
  EXPECT_EQ(m.touched().size(), 2u);
  m.reset_touched();
  EXPECT_FALSE(m.test(2));
  EXPECT_FALSE(m.test(8));
}

TEST(ScratchMask, ClearUnsetIdIsNoOp) {
  ScratchMask m(10);
  m.set(3);
  m.clear(7);
  EXPECT_TRUE(m.test(3));
  EXPECT_EQ(m.touched().size(), 1u);
}

TEST(ScratchMask, ClearThenSetAgainIsTracked) {
  ScratchMask m(10);
  m.set(4);
  m.clear(4);
  m.set(4);
  EXPECT_TRUE(m.test(4));
  EXPECT_EQ(m.touched().size(), 1u);
  m.reset_touched();
  EXPECT_FALSE(m.test(4));
}

// ----------------------------------------------------------- CSR stress

TEST(Graph, SkewedAppendsKeepRowsConsistent) {
  // Hammer one vertex's row so it relocates many times and the arc array
  // accumulates holes past the compaction threshold.
  const std::size_t n = 600;
  Graph g(n);
  for (VertexId v = 1; v < n; ++v) g.add_edge(0, v);
  EXPECT_EQ(g.degree(0), n - 1);
  const auto hub = g.neighbors(0);
  ASSERT_EQ(hub.size(), n - 1);
  for (std::size_t i = 0; i < hub.size(); ++i) {
    EXPECT_EQ(hub[i].to, static_cast<VertexId>(i + 1));  // insertion order
    EXPECT_EQ(hub[i].edge, static_cast<EdgeId>(i));
    const auto leaf = g.neighbors(static_cast<VertexId>(i + 1));
    ASSERT_EQ(leaf.size(), 1u);
    EXPECT_EQ(leaf[0].to, 0u);
    EXPECT_EQ(leaf[0].edge, static_cast<EdgeId>(i));
  }
}

TEST(Graph, InterleavedGrowthMatchesEdgeList) {
  // Round-robin appends across many rows: every row relocates at different
  // times; the adjacency must stay exactly the edge list folded per vertex.
  Rng rng(321);
  const std::size_t n = 80;
  Graph g(n);
  std::vector<std::vector<std::pair<VertexId, EdgeId>>> expect(n);
  for (int i = 0; i < 900; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(n));
    const auto v = static_cast<VertexId>(rng.next_below(n));
    if (u == v || g.has_edge(u, v)) continue;
    const EdgeId id = g.add_edge(u, v);
    expect[u].emplace_back(v, id);
    expect[v].emplace_back(u, id);
  }
  for (VertexId v = 0; v < n; ++v) {
    const auto arcs = g.neighbors(v);
    ASSERT_EQ(arcs.size(), expect[v].size()) << "vertex " << v;
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      EXPECT_EQ(arcs[i].to, expect[v][i].first);
      EXPECT_EQ(arcs[i].edge, expect[v][i].second);
    }
  }
}

/// Same vertex count, weighting, edge list, and arcs in the same order in
/// every row.
void expect_same_graph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.n(), b.n());
  ASSERT_EQ(a.weighted(), b.weighted());
  ASSERT_TRUE(std::equal(a.edges().begin(), a.edges().end(), b.edges().begin(),
                         b.edges().end()));
  for (VertexId v = 0; v < a.n(); ++v) {
    const auto ra = a.neighbors(v);
    const auto rb = b.neighbors(v);
    ASSERT_EQ(ra.size(), rb.size()) << "vertex " << v;
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].to, rb[i].to) << "vertex " << v << " arc " << i;
      EXPECT_EQ(ra[i].edge, rb[i].edge) << "vertex " << v << " arc " << i;
      EXPECT_EQ(ra[i].w, rb[i].w) << "vertex " << v << " arc " << i;
    }
  }
}

TEST(Graph, FromUnmaskedEqualsFromEdgesOverTheKeptList) {
  for (const bool weighted : {false, true}) {
    Rng rng(weighted ? 57 : 56);
    // Grown by add_edge: a hub row and round-robin rows relocate many
    // times, so the source rows sit scattered in the arc array.
    const std::size_t n = 90;
    Graph g(n, weighted);
    for (VertexId v = 1; v < 40; ++v)
      g.add_edge(0, v, weighted ? 1.0 + rng.next_double() : 1.0);
    for (int i = 0; i < 900; ++i) {
      const auto u = static_cast<VertexId>(rng.next_below(n));
      const auto v = static_cast<VertexId>(rng.next_below(n));
      if (u == v || g.has_edge(u, v)) continue;
      g.add_edge(u, v, weighted ? 1.0 + 9.0 * rng.next_double() : 1.0);
    }
    for (const double keep : {0.0, 0.3, 0.8, 1.0}) {
      std::vector<std::uint8_t> mask(g.m());
      std::vector<Edge> kept;
      for (EdgeId e = 0; e < g.m(); ++e) {
        mask[e] = rng.next_double() < keep ? 0 : 1;
        if (mask[e] == 0) kept.push_back(g.edge(e));
      }
      const Graph fast = Graph::from_unmasked(g, mask);
      const Graph slow = Graph::from_edges(n, kept, weighted);
      SCOPED_TRACE(::testing::Message() << "weighted=" << weighted
                                        << " keep=" << keep);
      expect_same_graph(fast, slow);
      EXPECT_EQ(fast.memory_bytes(), slow.memory_bytes());
    }
  }
  const Graph g = Graph::from_edges(3, std::vector<Edge>{{0, 1, 1.0}, {1, 2, 1.0}});
  EXPECT_THROW((void)Graph::from_unmasked(g, std::vector<std::uint8_t>(1)),
               std::invalid_argument);
}

TEST(Graph, ReserveEdgesCountsEdgesInTotal) {
  // A bulk-built graph already holds storage for its m edges, so reserving
  // m edges in total must not allocate.
  Rng rng(8);
  std::vector<Edge> edges;
  for (VertexId v = 1; v < 200; ++v)
    edges.push_back({static_cast<VertexId>(rng.next_below(v)), v, 1.0});
  Graph g = Graph::from_edges(200, edges);
  const std::size_t before = g.memory_bytes();
  g.reserve_edges(g.m());
  EXPECT_EQ(g.memory_bytes(), before);
}

}  // namespace
}  // namespace ftspan
