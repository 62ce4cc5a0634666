// Beyond-2^20 smoke test (CTest label "slow"; CI runs it nightly): the
// substrate must generate and traverse an n = 2^21 R-MAT instance without
// tripping any 32-bit assumption, and the fault-free greedy must complete a
// mid-six-figure instance end to end.  Kept to one generation each — this is
// a ceiling check, not a benchmark (bench/bench_e16_scale.cpp measures).

#include <gtest/gtest.h>

#include <cstdint>

#include "core/modified_greedy.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/search.h"
#include "util/rng.h"

namespace ftspan {
namespace {

TEST(ScaleSmoke, RmatBeyondMillionVertices) {
  Rng rng(2024);
  const std::size_t scale = 21, ef = 4;  // n = 2^21; ef kept low for CI RAM
  const Graph g = rmat(scale, ef, rng);
  EXPECT_EQ(g.n(), std::size_t{1} << scale);
  EXPECT_GT(g.m(), (g.n() * ef) / 2);
  EXPECT_LE(g.m(), g.n() * ef);

  // Arc accounting through the full CSR: 64-bit, exact.
  ArcIndex arcs = 0;
  for (VertexId v = 0; v < g.n(); ++v) arcs += g.neighbors(v).size();
  EXPECT_EQ(arcs, static_cast<ArcIndex>(2) * g.m());

  // One real traversal across the instance: a bounded BFS from a hub touches
  // millions of arcs and must report a consistent reached set.
  VertexId hub = 0;
  for (VertexId v = 0; v < g.n(); ++v)
    if (g.degree(v) > g.degree(hub)) hub = v;
  BfsRunner bfs;
  std::vector<std::uint32_t> hops;
  bfs.all_hops(g, hub, hops, {}, 3);
  ASSERT_EQ(hops.size(), g.n());
  std::size_t reached = 0;
  for (const auto h : hops)
    if (h != kUnreachableHops) ++reached;
  EXPECT_GT(reached, g.degree(hub));  // at least the hub's own ball
  EXPECT_GT(bfs.arcs_scanned(), static_cast<ArcIndex>(g.degree(hub)));
}

TEST(ScaleSmoke, FaultFreeGreedyCompletesAtScale17) {
  // The per-push E16 configuration in miniature: kronecker scale 15,
  // edgefactor 8, f = 0 — one sweep per decision end to end, with the size
  // bound pinned loosely enough to survive seed drift.
  Rng rng(2025);
  const Graph g = kronecker(15, 8, rng);
  const auto build = modified_greedy_spanner(g, SpannerParams{.k = 2, .f = 0},
                                             ModifiedGreedyConfig{});
  EXPECT_GT(build.spanner.m(), 0u);
  EXPECT_LT(build.spanner.m(), g.m());
  EXPECT_EQ(build.stats.oracle_calls, g.m());
}

}  // namespace
}  // namespace ftspan
