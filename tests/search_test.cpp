// Tests for src/graph/search.h: BFS/Dijkstra with fault views, hop limits,
// budgets, and workspace reuse.

#include <gtest/gtest.h>

#include <vector>

#include "graph/generators.h"
#include "graph/search.h"
#include "util/rng.h"

namespace ftspan {
namespace {

TEST(Bfs, DistancesOnPath) {
  const Graph g = path_graph(6);
  BfsRunner bfs;
  EXPECT_EQ(bfs.hop_distance(g, 0, 5), 5u);
  EXPECT_EQ(bfs.hop_distance(g, 2, 2), 0u);
  EXPECT_EQ(bfs.hop_distance(g, 5, 0), 5u);
}

TEST(Bfs, DistancesOnCycle) {
  const Graph g = cycle_graph(8);
  BfsRunner bfs;
  EXPECT_EQ(bfs.hop_distance(g, 0, 4), 4u);
  EXPECT_EQ(bfs.hop_distance(g, 0, 6), 2u);  // goes the short way
}

TEST(Bfs, UnreachableReportsInfinity) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  BfsRunner bfs;
  EXPECT_EQ(bfs.hop_distance(g, 0, 3), kUnreachableHops);
}

TEST(Bfs, HopLimitCutsOff) {
  const Graph g = path_graph(10);
  BfsRunner bfs;
  EXPECT_EQ(bfs.hop_distance(g, 0, 9, {}, 8), kUnreachableHops);
  EXPECT_EQ(bfs.hop_distance(g, 0, 9, {}, 9), 9u);
}

TEST(Bfs, VertexFaultForcesDetour) {
  const Graph g = cycle_graph(8);
  Mask faults(8);
  faults.set(1);  // the short way 0-1-2 is gone
  BfsRunner bfs;
  EXPECT_EQ(bfs.hop_distance(g, 0, 2, make_fault_view(&faults, nullptr)), 6u);
}

TEST(Bfs, EdgeFaultForcesDetour) {
  const Graph g = cycle_graph(8);
  Mask faults(8);
  const auto e = g.find_edge(0, 1);
  ASSERT_TRUE(e.has_value());
  faults.set(*e);
  BfsRunner bfs;
  EXPECT_EQ(bfs.hop_distance(g, 0, 1, make_fault_view(nullptr, &faults)), 7u);
}

TEST(Bfs, FaultedEndpointIsUnreachable) {
  const Graph g = path_graph(4);
  Mask faults(4);
  faults.set(0);
  BfsRunner bfs;
  const auto fv = make_fault_view(&faults, nullptr);
  EXPECT_EQ(bfs.hop_distance(g, 0, 3, fv), kUnreachableHops);
  EXPECT_EQ(bfs.hop_distance(g, 3, 0, fv), kUnreachableHops);
}

TEST(Bfs, ShortestPathIsValid) {
  Rng rng(2);
  const Graph g = gnp(40, 0.15, rng);
  BfsRunner bfs;
  std::vector<VertexId> path;
  for (VertexId u = 0; u < 10; ++u) {
    for (VertexId v = 10; v < 20; ++v) {
      const auto d = bfs.hop_distance(g, u, v);
      if (d == kUnreachableHops) continue;
      ASSERT_TRUE(bfs.shortest_path(g, u, v, path));
      EXPECT_EQ(path.size(), d + 1);
      EXPECT_EQ(path.front(), u);
      EXPECT_EQ(path.back(), v);
      for (std::size_t i = 0; i + 1 < path.size(); ++i)
        EXPECT_TRUE(g.has_edge(path[i], path[i + 1]));
    }
  }
}

TEST(Bfs, ShortestPathRespectsHopLimit) {
  const Graph g = cycle_graph(10);
  BfsRunner bfs;
  std::vector<VertexId> path;
  EXPECT_FALSE(bfs.shortest_path(g, 0, 5, path, {}, 4));
  EXPECT_TRUE(bfs.shortest_path(g, 0, 5, path, {}, 5));
  EXPECT_EQ(path.size(), 6u);
}

TEST(Bfs, AllHopsMatchesPairQueries) {
  Rng rng(3);
  const Graph g = gnp(30, 0.2, rng);
  BfsRunner bfs;
  std::vector<std::uint32_t> dist;
  bfs.all_hops(g, 0, dist);
  ASSERT_EQ(dist.size(), g.n());
  BfsRunner fresh;
  for (VertexId v = 0; v < g.n(); ++v)
    EXPECT_EQ(dist[v], fresh.hop_distance(g, 0, v)) << "vertex " << v;
}

TEST(Bfs, WorkspaceReuseAcrossManyQueries) {
  const Graph g = grid_graph(8, 8);
  BfsRunner bfs;
  // Repeated queries must not contaminate each other (epoch stamping).
  for (int rep = 0; rep < 50; ++rep) {
    EXPECT_EQ(bfs.hop_distance(g, 0, 63), 14u);
    EXPECT_EQ(bfs.hop_distance(g, 7, 56), 14u);
  }
}

TEST(Bfs, RunnerServesGrowingGraph) {
  Graph h(6);
  BfsRunner bfs(6);
  EXPECT_EQ(bfs.hop_distance(h, 0, 5), kUnreachableHops);
  h.add_edge(0, 5);
  EXPECT_EQ(bfs.hop_distance(h, 0, 5), 1u);
}

TEST(Bfs, OutOfRangeEndpointThrows) {
  const Graph g = path_graph(3);
  BfsRunner bfs;
  EXPECT_THROW(bfs.hop_distance(g, 0, 9), std::invalid_argument);
}

// -------------------------------------------------------------- Dijkstra

Graph weighted_diamond() {
  // 0 -1- 1 -1- 3   and   0 -5- 2 -5- 3: shortest 0..3 = 2 via vertex 1.
  Graph g(4, true);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 3, 1.0);
  g.add_edge(0, 2, 5.0);
  g.add_edge(2, 3, 5.0);
  return g;
}

TEST(Dijkstra, PicksLightestRoute) {
  const Graph g = weighted_diamond();
  DijkstraRunner dijkstra;
  EXPECT_DOUBLE_EQ(dijkstra.distance(g, 0, 3), 2.0);
}

TEST(Dijkstra, FaultReroutesToHeavyPath) {
  const Graph g = weighted_diamond();
  Mask faults(4);
  faults.set(1);
  DijkstraRunner dijkstra;
  EXPECT_DOUBLE_EQ(dijkstra.distance(g, 0, 3, make_fault_view(&faults, nullptr)),
                   10.0);
}

TEST(Dijkstra, BudgetPrunes) {
  const Graph g = weighted_diamond();
  DijkstraRunner dijkstra;
  EXPECT_DOUBLE_EQ(dijkstra.distance(g, 0, 3, {}, 2.0), 2.0);
  Mask faults(4);
  faults.set(1);
  const auto fv = make_fault_view(&faults, nullptr);
  EXPECT_EQ(dijkstra.distance(g, 0, 3, fv, 9.0), kUnreachableWeight);
  EXPECT_DOUBLE_EQ(dijkstra.distance(g, 0, 3, fv, 10.0), 10.0);
}

TEST(Dijkstra, AgreesWithBfsOnUnitWeights) {
  Rng rng(14);
  const Graph g = gnp(50, 0.12, rng);
  BfsRunner bfs;
  DijkstraRunner dijkstra;
  for (VertexId v = 1; v < 20; ++v) {
    const auto hops = bfs.hop_distance(g, 0, v);
    const auto dist = dijkstra.distance(g, 0, v);
    if (hops == kUnreachableHops)
      EXPECT_EQ(dist, kUnreachableWeight);
    else
      EXPECT_DOUBLE_EQ(dist, static_cast<double>(hops));
  }
}

TEST(Dijkstra, ShortestPathWeightsAddUp) {
  Rng rng(15);
  const Graph base = gnp(40, 0.2, rng);
  const Graph g = with_uniform_weights(base, 1.0, 4.0, rng);
  DijkstraRunner dijkstra;
  std::vector<VertexId> path;
  for (VertexId v = 1; v < 15; ++v) {
    const auto d = dijkstra.distance(g, 0, v);
    if (d == kUnreachableWeight) continue;
    ASSERT_TRUE(dijkstra.shortest_path(g, 0, v, path));
    double total = 0;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const auto e = g.find_edge(path[i], path[i + 1]);
      ASSERT_TRUE(e.has_value());
      total += g.edge(*e).w;
    }
    EXPECT_NEAR(total, d, 1e-9);
  }
}

TEST(Dijkstra, AllDistancesMatchesPairQueries) {
  Rng rng(16);
  const Graph base = gnp(30, 0.2, rng);
  const Graph g = with_uniform_weights(base, 0.5, 2.0, rng);
  DijkstraRunner dijkstra;
  std::vector<Weight> dist;
  dijkstra.all_distances(g, 3, dist);
  DijkstraRunner fresh;
  for (VertexId v = 0; v < g.n(); ++v) {
    const auto d = fresh.distance(g, 3, v);
    if (d == kUnreachableWeight)
      EXPECT_EQ(dist[v], kUnreachableWeight);
    else
      EXPECT_NEAR(dist[v], d, 1e-12);
  }
}

TEST(Dijkstra, MultiTargetDistancesMatchSingleTargetQueries) {
  // distances() must answer each target bit-identically to distance() with
  // the same budget: duplicates, the source itself, failed and unreachable
  // targets included.  Integer weights make equal-distance ties common.
  Rng rng(17);
  const Graph base = gnp(60, 0.08, rng);
  Graph g(base.n(), true);
  for (const auto& e : base.edges())
    g.add_edge(e.u, e.v, static_cast<Weight>(1 + rng.next_below(4)));
  Mask failed(g.n());
  failed.set(7);
  failed.set(11);
  const FaultView fv = make_fault_view(&failed, nullptr);
  DijkstraRunner multi;
  DijkstraRunner single;
  std::vector<Weight> out;
  for (VertexId s = 0; s < 12; ++s) {
    std::vector<VertexId> targets{s, 7, 30};
    for (int i = 0; i < 6; ++i)
      targets.push_back(static_cast<VertexId>(rng.next_below(g.n())));
    targets.push_back(targets.back());
    for (const Weight budget : {kUnreachableWeight, 5.0, 2.0}) {
      multi.distances(g, s, targets, out, fv, budget);
      ASSERT_EQ(out.size(), targets.size());
      for (std::size_t i = 0; i < targets.size(); ++i)
        EXPECT_EQ(out[i], single.distance(g, s, targets[i], fv, budget))
            << "s=" << s << " t=" << targets[i] << " budget=" << budget;
    }
  }
}

TEST(Dijkstra, MultiTargetSearchStopsAtLastTarget) {
  const Graph g = path_graph(50);
  DijkstraRunner dijkstra;
  std::vector<Weight> out;
  const std::vector<VertexId> near{2, 1, 3};
  dijkstra.distances(g, 0, near, out);
  EXPECT_EQ(out, (std::vector<Weight>{2.0, 1.0, 3.0}));
  // Vertices 0..2 are expanded before 3 settles: one arc, then two each.
  EXPECT_EQ(dijkstra.arcs_scanned(), 5u);
  // No live target: nothing to search for.
  Mask failed(50);
  failed.set(2);
  const std::vector<VertexId> dead{2};
  dijkstra.distances(g, 0, dead, out, make_fault_view(&failed, nullptr));
  EXPECT_EQ(out, std::vector<Weight>{kUnreachableWeight});
  EXPECT_EQ(dijkstra.arcs_scanned(), 5u);
}

TEST(Dijkstra, SourceEqualsTargetIsZero) {
  const Graph g = weighted_diamond();
  DijkstraRunner dijkstra;
  EXPECT_DOUBLE_EQ(dijkstra.distance(g, 2, 2), 0.0);
}

TEST(FaultView, EmptyViewMeansAllAlive) {
  const FaultView fv;
  EXPECT_TRUE(fv.vertex_alive(0));
  EXPECT_TRUE(fv.vertex_alive(1000));
  EXPECT_TRUE(fv.edge_alive(0));
}

TEST(FaultView, EdgeIdsBeyondMaskAreAlive) {
  Mask edges(2);
  edges.set(1);
  const auto fv = make_fault_view(nullptr, &edges);
  EXPECT_TRUE(fv.edge_alive(0));
  EXPECT_FALSE(fv.edge_alive(1));
  EXPECT_TRUE(fv.edge_alive(5));  // the spanner grew since the mask was made
}

}  // namespace
}  // namespace ftspan
