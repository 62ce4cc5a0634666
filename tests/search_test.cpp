// Tests for src/graph/search.h: BFS/Dijkstra with fault views, hop limits,
// budgets, and workspace reuse.

#include <gtest/gtest.h>

#include <string>
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

// ------------------------------------------------------ two-ended BFS

/// True when `steps` is an s-t path of g whose edges and vertices are all
/// alive under `view`, each step naming an edge between its endpoints.
bool valid_path(const Graph& g, VertexId s, VertexId t,
                const std::vector<PathStep>& steps, const FaultView& view) {
  if (steps.empty() || steps.front().to != s || steps.back().to != t ||
      steps.front().edge != kInvalidEdge)
    return false;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (!view.vertex_alive(steps[i].to)) return false;
    if (i == 0) continue;
    const EdgeId e = steps[i].edge;
    if (e >= g.m() || !view.edge_alive(e)) return false;
    const Edge& edge = g.edge(e);
    const VertexId a = steps[i - 1].to, b = steps[i].to;
    if (!((edge.u == a && edge.v == b) || (edge.u == b && edge.v == a)))
      return false;
  }
  return true;
}

TEST(Bfs, TwoEndedSourceEqualsTarget) {
  const Graph g = path_graph(3);
  BfsRunner bfs;
  std::vector<PathStep> out;
  EXPECT_EQ(bfs.two_ended_path_arcs(g, 1, 1, out), 0u);
  EXPECT_EQ(out, (std::vector<PathStep>{{1, kInvalidEdge}}));
  Mask dead(3);
  dead.set(1);
  out.clear();
  EXPECT_EQ(bfs.two_ended_path_arcs(g, 1, 1, out, make_fault_view(&dead, nullptr)),
            kUnreachableHops);
  EXPECT_TRUE(out.empty());
  // A zero-hop bound: s == t still answers 0, and any other target is out
  // of reach with out untouched.
  EXPECT_EQ(bfs.two_ended_path_arcs(g, 1, 1, out, {}, 0), 0u);
  EXPECT_EQ(out, (std::vector<PathStep>{{1, kInvalidEdge}}));
  EXPECT_EQ(bfs.two_ended_path_arcs(g, 0, 1, out, {}, 0), kUnreachableHops);
  EXPECT_EQ(out, (std::vector<PathStep>{{1, kInvalidEdge}}));
}

TEST(Bfs, TwoEndedAdjacentVertices) {
  const Graph g = path_graph(4);  // edges 0-1 (0), 1-2 (1), 2-3 (2)
  BfsRunner bfs;
  std::vector<PathStep> out;
  EXPECT_EQ(bfs.two_ended_path_arcs(g, 2, 1, out), 1u);
  EXPECT_EQ(out, (std::vector<PathStep>{{2, kInvalidEdge}, {1, 1}}));
  EXPECT_EQ(bfs.two_ended_path_arcs(g, 0, 3, out), 3u);
  EXPECT_TRUE(valid_path(g, 0, 3, out, {}));
}

TEST(Bfs, TwoEndedUnreachableLeavesOutUntouched) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  BfsRunner bfs;
  const std::vector<PathStep> sentinel{{9, 9}};
  std::vector<PathStep> out = sentinel;
  EXPECT_EQ(bfs.two_ended_path_arcs(g, 0, 5, out), kUnreachableHops);
  EXPECT_EQ(bfs.two_ended_path_arcs(g, 5, 0, out), kUnreachableHops);
  EXPECT_EQ(out, sentinel);
}

TEST(Bfs, TwoEndedRespectsEdgeAndVertexMasks) {
  const Graph g = cycle_graph(8);  // edge i joins i and i+1 (mod 8)
  BfsRunner bfs;
  std::vector<PathStep> out;
  Mask edges(g.m());
  edges.set(0);  // 0-1 fails: 0 reaches 1 the long way round
  const FaultView ev = make_fault_view(nullptr, &edges);
  EXPECT_EQ(bfs.two_ended_path_arcs(g, 0, 1, out, ev), 7u);
  EXPECT_TRUE(valid_path(g, 0, 1, out, ev));
  Mask verts(g.n());
  verts.set(7);  // and with vertex 7 down, not at all
  const FaultView both = make_fault_view(&verts, &edges);
  EXPECT_EQ(bfs.two_ended_path_arcs(g, 0, 1, out, both), kUnreachableHops);
  const FaultView vv = make_fault_view(&verts, nullptr);
  EXPECT_EQ(bfs.two_ended_path_arcs(g, 0, 6, out, vv), 6u);
  EXPECT_TRUE(valid_path(g, 0, 6, out, vv));
}

TEST(Bfs, TwoEndedMatchesHopDistanceOnRandomGraphs) {
  // Unbounded and hop-bounded (max_hops 0..5, on both sides of the answer)
  // searches against the one-ended BFS under the same bound.
  Rng rng(4242);
  BfsRunner two;  // one runner across graphs and masks: stamps must not leak
  BfsRunner one;
  const std::vector<PathStep> sentinel{{9, 9}};
  std::vector<PathStep> out;
  int within = 0, past = 0;  // bounded queries answered inside / past the bound
  for (int trial = 0; trial < 60; ++trial) {
    const Graph g = gnp(30 + rng.next_below(30), 0.04 + 0.1 * rng.next_double(), rng);
    Mask verts(g.n());
    Mask edges(g.m());
    const int shape = trial % 4;  // none, vertices, edges, both
    for (VertexId v = 0; v < g.n(); ++v)
      if ((shape & 1) != 0 && rng.next_bool(0.1)) verts.set(v);
    for (EdgeId e = 0; e < g.m(); ++e)
      if ((shape & 2) != 0 && rng.next_bool(0.2)) edges.set(e);
    const FaultView view = make_fault_view((shape & 1) != 0 ? &verts : nullptr,
                                           (shape & 2) != 0 ? &edges : nullptr);
    for (int q = 0; q < 40; ++q) {
      const auto s = static_cast<VertexId>(rng.next_below(g.n()));
      const auto t = static_cast<VertexId>(rng.next_below(g.n()));
      const std::uint32_t max_hops =
          q % 2 == 0 ? kUnreachableHops
                     : static_cast<std::uint32_t>(rng.next_below(6));
      const std::string ctx = "trial " + std::to_string(trial) + " " +
                              std::to_string(s) + "->" + std::to_string(t) +
                              " max_hops " + std::to_string(max_hops);
      const std::uint32_t want = one.hop_distance(g, s, t, view, max_hops);
      out = sentinel;
      const std::uint32_t got = two.two_ended_path_arcs(g, s, t, out, view, max_hops);
      ASSERT_EQ(got, want) << ctx;
      if (max_hops == 0 && s != t) {
        ASSERT_EQ(got, kUnreachableHops) << ctx;
      }
      if (got == kUnreachableHops) {
        ASSERT_EQ(out, sentinel) << ctx;
        if (max_hops != kUnreachableHops &&
            one.hop_distance(g, s, t, view) != kUnreachableHops)
          ++past;
        continue;
      }
      if (max_hops != kUnreachableHops) ++within;
      ASSERT_LE(got, max_hops) << ctx;
      ASSERT_EQ(out.size(), got + 1u) << ctx;
      ASSERT_TRUE(valid_path(g, s, t, out, view)) << ctx;
    }
  }
  // Neither side of the bound may go unexercised.
  EXPECT_GT(within, 100);
  EXPECT_GT(past, 100);
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
