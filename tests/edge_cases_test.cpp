// Degenerate-input sweep: f = 0, k = 1, disconnected graphs, and
// single-vertex / empty graphs through the modified greedy (against the
// per-edge reference greedy), the verifier, and the batched LBC path.
// Several of these previously passed only by accident — this file makes the
// contracts explicit.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/lbc.h"
#include "core/modified_greedy.h"
#include "fault/attack.h"
#include "fault/verifier.h"
#include "graph/fault_mask.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/search.h"
#include "test_util.h"
#include "util/rng.h"

namespace ftspan {
namespace {

/// The engine must match the per-edge reference and verify exhaustively.
void expect_build_ok(const Graph& g, const SpannerParams& params) {
  ModifiedGreedyConfig config;
  config.order = EdgeOrder::input;
  const auto build = testing::expect_matches_reference(
      g, params, config,
      g.summary() + " k=" + std::to_string(params.k) +
          " f=" + std::to_string(params.f));

  const auto report = verify_exhaustive(g, build.spanner, params);
  EXPECT_TRUE(report.ok) << g.summary() << " k=" << params.k
                         << " f=" << params.f << " max_stretch "
                         << report.max_stretch;
}

TEST(EdgeCases, ZeroFaultsDegeneratesToClassicGreedy) {
  // f = 0 means alpha = 0: a single sweep per decision, never a masked one.
  Rng rng(501);
  const Graph g = gnp(24, 0.25, rng);
  for (const FaultModel model : {FaultModel::vertex, FaultModel::edge})
    expect_build_ok(g, SpannerParams{.k = 2, .f = 0, .model = model});
}

TEST(EdgeCases, StretchOneKeepsAllNonRedundantEdges) {
  // k = 1 (t = 1): an edge is spanned only by a parallel edge, which the
  // Graph type forbids, so the greedy must keep every edge of G.
  Rng rng(502);
  const Graph g = gnp(18, 0.3, rng);
  for (const FaultModel model : {FaultModel::vertex, FaultModel::edge}) {
    const SpannerParams params{.k = 1, .f = 2, .model = model};
    expect_build_ok(g, params);
    const auto build = modified_greedy_spanner(g, params);
    EXPECT_EQ(build.spanner.m(), g.m()) << to_string(model);
  }
}

TEST(EdgeCases, DisconnectedInput) {
  // Two components plus isolated vertices: cross-component decisions are
  // YES at sweep 0 (unreachable), exercising empty-tree sessions.
  Graph g(11);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(4, 5);
  g.add_edge(5, 6);
  g.add_edge(6, 7);
  g.add_edge(7, 4);
  // vertices 3, 8, 9, 10 are isolated
  for (const FaultModel model : {FaultModel::vertex, FaultModel::edge}) {
    expect_build_ok(g, SpannerParams{.k = 2, .f = 1, .model = model});
    expect_build_ok(g, SpannerParams{.k = 2, .f = 3, .model = model});
  }
}

TEST(EdgeCases, SingleVertexAndEmptyGraphs) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    const Graph g(n);  // no edges at all
    for (const FaultModel model : {FaultModel::vertex, FaultModel::edge}) {
      const SpannerParams params{.k = 2, .f = 1, .model = model};
      const auto build = modified_greedy_spanner(g, params);
      EXPECT_EQ(build.spanner.m(), 0u);
      EXPECT_EQ(build.stats.oracle_calls, 0u);
      const auto report = verify_exhaustive(g, build.spanner, params);
      EXPECT_TRUE(report.ok) << "n=" << n;
    }
  }
}

TEST(EdgeCases, TwoVertexGraph) {
  Graph g(2);
  g.add_edge(0, 1);
  for (const FaultModel model : {FaultModel::vertex, FaultModel::edge}) {
    expect_build_ok(g, SpannerParams{.k = 2, .f = 2, .model = model});
    const auto build =
        modified_greedy_spanner(g, SpannerParams{.k = 2, .f = 2, .model = model});
    EXPECT_EQ(build.picked, std::vector<EdgeId>{0});
  }
}

/// Algorithm 2 in its textbook form, one one-ended t-hop BFS per sweep.
LbcResult one_ended_lbc(const Graph& g, FaultModel model, VertexId u,
                        VertexId v, std::uint32_t t, std::uint32_t alpha) {
  Mask vertices(g.n());
  Mask edges(g.m());
  const FaultView cut = make_fault_view(&vertices, &edges);
  BfsRunner bfs;
  LbcResult result;
  result.cut.model = model;
  std::vector<PathStep> path;
  const LbcSweeps outcome = lbc_sweeps(
      model, alpha, path,
      [&](std::uint32_t, std::vector<PathStep>& p) {
        return bfs.shortest_path_arcs(g, u, v, p, cut, t);
      },
      [&](VertexId x) {
        if (!vertices.test(x)) result.cut.ids.push_back(x);
        vertices.set(x);
      },
      [&](EdgeId e) {
        if (!edges.test(e)) result.cut.ids.push_back(e);
        edges.set(e);
      });
  result.yes = outcome.yes;
  result.sweeps = outcome.sweeps;
  return result;
}

TEST(EdgeCases, BatchedLbcOnDegenerateInputs) {
  // Decisions on a disconnected graph: unreachable targets, one-hop targets
  // (empty cut growth), and f = 0 single sweeps.  Batched alpha-0 decisions
  // must match decide(); at alpha >= 1, where batches refuse, decide's
  // two-ended sweeps must match the one-ended textbook loop (every path
  // here is the only shortest one under its cut).
  Graph g(7);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.add_edge(4, 5);
  const std::vector<VertexId> targets = {1, 2, 3, 4, 5, 6};
  for (const FaultModel model : {FaultModel::vertex, FaultModel::edge}) {
    for (const std::uint32_t alpha : {0u, 1u, 3u}) {
      LbcSolver batched(model);
      LbcSolver reference(model);
      batched.begin_batch(g, 0, targets, 3);
      if (alpha != 0) {
        EXPECT_THROW((void)batched.decide_batched(0, alpha),
                     std::invalid_argument);
      }
      for (std::size_t j = 0; j < targets.size(); ++j) {
        const LbcResult result =
            alpha == 0 ? batched.decide_batched(j, alpha)
                       : one_ended_lbc(g, model, 0, targets[j], 3, alpha);
        const LbcResult ref = reference.decide(g, 0, targets[j], 3, alpha);
        EXPECT_EQ(result.yes, ref.yes)
            << to_string(model) << " alpha=" << alpha << " target=" << targets[j];
        EXPECT_EQ(result.sweeps, ref.sweeps)
            << to_string(model) << " alpha=" << alpha << " target=" << targets[j];
        EXPECT_EQ(result.cut.ids, ref.cut.ids)
            << to_string(model) << " alpha=" << alpha << " target=" << targets[j];
      }
    }
  }
}

TEST(EdgeCases, VerifierOnDegenerateInputs) {
  // The verifier must accept H == G on disconnected inputs (stretch is
  // measured only between pairs G\F itself connects).
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const SpannerParams params{.k = 2, .f = 1};
  const auto exhaustive = verify_exhaustive(g, g, params);
  EXPECT_TRUE(exhaustive.ok);
  Rng rng(77);
  const auto sampled = verify_sampled(g, g, params, 10, rng);
  EXPECT_TRUE(sampled.ok);

  const Graph single(1);
  EXPECT_TRUE(verify_exhaustive(single, single, params).ok);
}

TEST(EdgeCases, AttackSizeContractOnTinyUniverses) {
  // attack.h's documented ceilings, asserted on the graphs where they bind:
  // uniform/high_degree saturate the universe, the pivot-protecting
  // strategies stop at n-2 (vertex) / m-1 (neighborhood, edge model).
  const Graph star = star_graph(5);    // n=5, m=4
  const Graph path = path_graph(4);    // n=4, m=3
  const Graph single = path_graph(2);  // n=2, m=1
  constexpr std::uint32_t kAsk = 10;   // always more than any universe here

  for (const Graph* g : {&star, &path, &single}) {
    const auto n = static_cast<std::uint32_t>(g->n());
    const auto m = static_cast<std::uint32_t>(g->m());
    const std::string ctx = "n=" + std::to_string(n) + " m=" + std::to_string(m);
    Rng rng(601);
    const auto size_of = [&](FaultModel model, AttackStrategy strategy) {
      const FaultSet fs = generate_attack(*g, *g, model, kAsk, strategy, rng);
      // The contract also promises distinct, in-range ids.
      std::vector<std::uint32_t> ids = fs.ids;
      std::sort(ids.begin(), ids.end());
      EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end()) << ctx;
      for (const auto id : ids)
        EXPECT_LT(id, model == FaultModel::vertex ? n : m) << ctx;
      return static_cast<std::uint32_t>(fs.ids.size());
    };

    EXPECT_EQ(size_of(FaultModel::vertex, AttackStrategy::uniform), n) << ctx;
    EXPECT_EQ(size_of(FaultModel::vertex, AttackStrategy::high_degree), n)
        << ctx;
    EXPECT_EQ(size_of(FaultModel::vertex, AttackStrategy::neighborhood), n - 2)
        << ctx;
    EXPECT_EQ(size_of(FaultModel::vertex, AttackStrategy::detour_hitting),
              n - 2)
        << ctx;
    EXPECT_EQ(size_of(FaultModel::edge, AttackStrategy::uniform), m) << ctx;
    EXPECT_EQ(size_of(FaultModel::edge, AttackStrategy::high_degree), m) << ctx;
    EXPECT_EQ(size_of(FaultModel::edge, AttackStrategy::neighborhood), m - 1)
        << ctx;
    EXPECT_EQ(size_of(FaultModel::edge, AttackStrategy::detour_hitting), m)
        << ctx;
  }
}

TEST(EdgeCases, VerifierSkipsUndersizedTrialsInsteadOfMiscounting) {
  // f far above the universe: most draws come back short and must be
  // tallied as skipped, never counted as full-strength size-f coverage.
  const Graph g = path_graph(3);  // n=3, m=2
  const SpannerParams params{.k = 2, .f = 5};
  Rng rng(602);
  const auto report = verify_sampled(g, g, params, 12, rng);
  EXPECT_TRUE(report.ok);  // H == G is always a spanner
  EXPECT_GT(report.trials_skipped, 0u);
  EXPECT_EQ(report.fault_sets_checked, 1u + 12u - report.trials_skipped);
}

}  // namespace
}  // namespace ftspan
