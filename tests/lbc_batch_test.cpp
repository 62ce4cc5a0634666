// Bit-identity tests for terminal-batched LBC: the resumable terminal-tree
// session (BfsRunner::tree_begin / tree_next) must answer every target
// exactly like a dedicated single-target search — distance and path — and
// LbcSolver::decide_batched, an alpha = 0 API, must reproduce decide() down
// to cuts and sweep counts at any query order.  The greedy's scan
// (lbc_scan), batched at f = 0 and per edge at f >= 1, is pinned against
// the test-side per-edge reference greedy.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/lbc.h"
#include "core/modified_greedy.h"
#include "graph/fault_mask.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/search.h"
#include "test_util.h"
#include "util/rng.h"

namespace ftspan {
namespace {

// --------------------------------------------------- terminal-tree sessions

/// Checks every target of one session against fresh single-target searches.
void expect_tree_matches_single_target(const Graph& g, VertexId s,
                                       const std::vector<VertexId>& targets,
                                       const FaultView& faults,
                                       std::uint32_t max_hops) {
  BfsRunner tree;
  tree.tree_begin(g, s, targets, faults, max_hops);

  BfsRunner single;
  std::vector<PathStep> tree_path, single_path;
  for (const VertexId v : targets) {
    const std::uint32_t dist = tree.tree_next(v);
    const bool tree_found = dist <= max_hops;

    const bool single_found =
        single.shortest_path_arcs(g, s, v, single_path, faults, max_hops);
    ASSERT_EQ(tree_found, single_found) << "s=" << s << " v=" << v;
    if (tree_found) {
      tree.path_arcs_to(v, tree_path);
      EXPECT_EQ(tree_path, single_path) << "s=" << s << " v=" << v;
      EXPECT_EQ(dist, tree_path.size() - 1);
    }

    // Idempotent: asking again returns the identical answer.
    EXPECT_EQ(tree.tree_next(v), dist);
  }
}

TEST(TerminalTree, MatchesSingleTargetSearches) {
  Rng rng(9001);
  for (int trial = 0; trial < 6; ++trial) {
    const Graph g = gnp(40 + 8 * trial, 0.12, rng);
    for (const std::uint32_t max_hops : {1u, 2u, 3u, 5u}) {
      const auto s = static_cast<VertexId>(rng.next_below(g.n()));
      std::vector<VertexId> targets;
      for (VertexId v = 0; v < g.n(); ++v)
        if (v != s) targets.push_back(v);
      // Shuffled query order exercises out-of-order resume; duplicates
      // exercise the answered-target fast path.
      std::shuffle(targets.begin(), targets.end(), rng);
      targets.push_back(targets.front());
      expect_tree_matches_single_target(g, s, targets, FaultView{}, max_hops);
    }
  }
}

TEST(TerminalTree, MatchesSingleTargetSearchesUnderFaults) {
  Rng rng(9002);
  for (int trial = 0; trial < 4; ++trial) {
    const Graph g = gnp(48, 0.15, rng);
    ScratchMask vertex_faults, edge_faults;
    vertex_faults.ensure_universe(g.n());
    edge_faults.ensure_universe(g.m());
    for (int i = 0; i < 5; ++i)
      vertex_faults.set(static_cast<VertexId>(rng.next_below(g.n())));
    for (int i = 0; i < 10; ++i)
      edge_faults.set(static_cast<EdgeId>(rng.next_below(g.m())));
    const FaultView faults{vertex_faults.bytes(), edge_faults.bytes()};

    const auto s = static_cast<VertexId>(rng.next_below(g.n()));
    if (!faults.vertex_alive(s)) continue;
    std::vector<VertexId> targets;
    for (VertexId v = 0; v < g.n(); ++v)
      if (v != s) targets.push_back(v);  // includes failed targets
    std::shuffle(targets.begin(), targets.end(), rng);
    expect_tree_matches_single_target(g, s, targets, faults, 3);
  }
}

TEST(TerminalTree, DisconnectedTargetsAreUnreachable) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(4, 5);  // separate component
  const std::vector<VertexId> targets = {2, 4, 5, 3};
  BfsRunner tree;
  tree.tree_begin(g, 0, targets, {}, 10);
  EXPECT_EQ(tree.tree_next(2), 2u);
  EXPECT_EQ(tree.tree_next(4), kUnreachableHops);
  EXPECT_EQ(tree.tree_next(5), kUnreachableHops);
  EXPECT_EQ(tree.tree_next(3), kUnreachableHops);
}

TEST(TerminalTree, GraftMatchesDedicatedDistances) {
  // tree_insert_source_arc is a distance-only overlay: after grafting a new
  // (source, v) edge into an exhausted session, every target's distance must
  // match a dedicated BFS on the grown graph (the alpha == 0 accept path of
  // the greedy engines).
  Rng rng(9004);
  for (int trial = 0; trial < 6; ++trial) {
    Graph g = gnp(60, 0.04 + 0.01 * trial, rng);  // sparse: some unreachable
    const auto s = static_cast<VertexId>(rng.next_below(g.n()));
    const std::uint32_t max_hops = 3;
    std::vector<VertexId> targets;
    for (VertexId v = 0; v < g.n(); ++v)
      if (v != s) targets.push_back(v);

    BfsRunner tree;
    tree.tree_begin(g, s, targets, {}, max_hops);

    BfsRunner single;
    int grafts = 0;
    for (const VertexId v : targets) {
      // The first unreachable answer exhausts the session, as the accepting
      // answer does in the greedy scan; every graft below finds it so.
      if (tree.tree_next(v) != kUnreachableHops) continue;
      if (g.has_edge(s, v)) continue;
      // Accept (s, v): append to the graph, graft into the session.
      g.add_edge(s, v);
      tree.tree_insert_source_arc(v, static_cast<EdgeId>(g.m() - 1));
      ++grafts;
      for (const VertexId w : targets) {
        EXPECT_EQ(tree.tree_next(w), single.hop_distance(g, s, w, {}, max_hops))
            << "s=" << s << " graft=" << v << " w=" << w;
      }
      if (grafts == 3) break;  // a few cascading grafts per trial suffice
    }
    EXPECT_GT(grafts, 0) << "trial " << trial << " exercised nothing";
  }
}

TEST(TerminalTree, GraftRequiresExhaustedSession) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  BfsRunner tree;
  const std::vector<VertexId> targets = {2, 4};
  tree.tree_begin(g, 0, targets, {}, 3);
  g.add_edge(0, 4);
  // Nothing expanded yet: the graft precondition must fire.
  EXPECT_THROW(tree.tree_insert_source_arc(4, static_cast<EdgeId>(g.m() - 1)),
               std::invalid_argument);
}

TEST(TerminalTree, SessionEndsWithAnotherSearch) {
  Rng rng(9003);
  const Graph g = gnp(20, 0.3, rng);
  BfsRunner runner;
  const std::vector<VertexId> targets = {1, 2, 3};
  runner.tree_begin(g, 0, targets, {}, 3);
  (void)runner.tree_next(1);
  (void)runner.hop_distance(g, 0, 2);  // unrelated search ends the session
  EXPECT_THROW((void)runner.tree_next(2), std::invalid_argument);
}

// ----------------------------------------------------- batched LBC decisions

void expect_batch_matches_decide(const Graph& g, FaultModel model,
                                 std::uint32_t t, VertexId u,
                                 const std::vector<VertexId>& targets) {
  LbcSolver batched(model);
  LbcSolver reference(model);
  batched.begin_batch(g, u, targets, t);
  for (std::size_t j = 0; j < targets.size(); ++j) {
    const LbcResult result = batched.decide_batched(j, 0);
    const LbcResult ref = reference.decide(g, u, targets[j], t, 0);
    EXPECT_EQ(result.yes, ref.yes) << "target " << targets[j];
    EXPECT_EQ(result.sweeps, ref.sweeps) << "target " << targets[j];
    EXPECT_EQ(result.cut.model, ref.cut.model);
    EXPECT_EQ(result.cut.ids, ref.cut.ids) << "target " << targets[j];
  }
  EXPECT_EQ(batched.total_sweeps(), reference.total_sweeps());
  EXPECT_EQ(batched.trees_built(), 1u);
  EXPECT_EQ(batched.batched_sweeps(), targets.size());
  EXPECT_EQ(batched.tree_reuse_hits(), targets.size() - 1);
}

TEST(LbcBatch, MatchesPerPairDecisions) {
  Rng rng(9010);
  for (const FaultModel model : {FaultModel::vertex, FaultModel::edge}) {
    for (int trial = 0; trial < 5; ++trial) {
      const Graph g = gnp(36, 0.2, rng);
      const auto u = static_cast<VertexId>(rng.next_below(g.n()));
      std::vector<VertexId> targets;
      for (VertexId v = 0; v < g.n(); ++v)
        if (v != u) targets.push_back(v);
      std::shuffle(targets.begin(), targets.end(), rng);
      const auto t = static_cast<std::uint32_t>(1 + rng.next_below(4));
      expect_batch_matches_decide(g, model, t, u, targets);
    }
  }
}

TEST(LbcBatch, BatchesAreAlphaZeroOnly) {
  // At alpha >= 1 decide searches every sweep from both ends and there is
  // no batch to share: decide_batched refuses, and the refusal leaves the
  // open batch intact.
  Rng rng(9012);
  const Graph g = gnp(16, 0.4, rng);
  LbcSolver solver(FaultModel::vertex);
  LbcSolver reference(FaultModel::vertex);
  const std::vector<VertexId> targets = {1, 2, 3};
  solver.begin_batch(g, 0, targets, 3);
  EXPECT_THROW((void)solver.decide_batched(0, 1), std::invalid_argument);
  EXPECT_THROW((void)solver.decide_batched(1, 3), std::invalid_argument);
  EXPECT_EQ(solver.decide_batched(0, 0).yes, reference.decide(g, 0, 1, 3, 0).yes);
  EXPECT_EQ(solver.batched_sweeps(), 1u);
}

TEST(LbcBatch, UnservedTreeCountsNoReuse) {
  // A tree opened but never served saves nothing (and must not wrap the
  // counter below zero); the next tree's second answer is its first reuse.
  Rng rng(9013);
  const Graph g = gnp(16, 0.4, rng);
  LbcSolver solver(FaultModel::edge);
  const std::vector<VertexId> targets = {1, 2, 3};
  solver.begin_batch(g, 0, targets, 3);
  (void)solver.decide(g, 0, 1, 3, 0);
  EXPECT_EQ(solver.trees_built(), 1u);
  EXPECT_EQ(solver.tree_reuse_hits(), 0u);
  solver.begin_batch(g, 0, targets, 3);
  (void)solver.decide_batched(0, 0);
  EXPECT_EQ(solver.tree_reuse_hits(), 0u);
  (void)solver.decide_batched(2, 0);
  EXPECT_EQ(solver.trees_built(), 2u);
  EXPECT_EQ(solver.batched_sweeps(), 2u);
  EXPECT_EQ(solver.tree_reuse_hits(), 1u);
}

TEST(LbcBatch, DirectDecideEndsTheBatch) {
  Rng rng(9011);
  const Graph g = gnp(16, 0.4, rng);
  LbcSolver solver(FaultModel::vertex);
  const std::vector<VertexId> targets = {1, 2, 3};
  solver.begin_batch(g, 0, targets, 3);
  (void)solver.decide(g, 0, 1, 3, 1);
  EXPECT_THROW((void)solver.decide_batched(1, 0), std::invalid_argument);
}

TEST(LbcBatch, GraphMutationIsCaught) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  LbcSolver solver(FaultModel::vertex);
  const std::vector<VertexId> targets = {1, 2};
  solver.begin_batch(g, 0, targets, 3);
  (void)solver.decide_batched(0, 0);
  g.add_edge(2, 3);
  EXPECT_THROW((void)solver.decide_batched(1, 0), std::invalid_argument);
}

// ------------------------------------------------ batched greedy equivalence

/// The greedy scan against the per-edge reference greedy; `seed` names the
/// generator seed of g in every failure.  Only f = 0 scans batch.
void expect_greedy_batch_equivalence(const Graph& g,
                                     const SpannerParams& params,
                                     EdgeOrder order, std::uint64_t seed) {
  ModifiedGreedyConfig config;
  config.order = order;
  const std::string ctx = "seed=" + std::to_string(seed) + " " + g.summary() +
                          " k=" + std::to_string(params.k) +
                          " f=" + std::to_string(params.f) + " model=" +
                          to_string(params.model);
  const auto batched =
      testing::expect_matches_reference(g, params, config, ctx);
  if (params.f == 0) {
    EXPECT_GT(batched.stats.batched_sweeps, 0u) << ctx;
  } else {
    EXPECT_EQ(batched.stats.batched_sweeps, 0u) << ctx;
  }
}

TEST(LbcBatch, GreedyPicksMatchUnbatched) {
  Rng rng(9020);
  for (const FaultModel model : {FaultModel::vertex, FaultModel::edge}) {
    const Graph g = gnp(56, 0.18, rng);
    for (const std::uint32_t f : {0u, 1u, 2u})
      expect_greedy_batch_equivalence(
          g, SpannerParams{.k = 2, .f = f, .model = model}, EdgeOrder::input,
          9020);
  }
}

TEST(LbcBatch, GreedyPicksMatchUnbatchedWeighted) {
  Rng rng(9021);
  const Graph g0 = random_geometric(40, 0.3, rng);
  const Graph g = with_uniform_weights(g0, 0.5, 2.0, rng);
  for (const FaultModel model : {FaultModel::vertex, FaultModel::edge})
    for (const std::uint32_t f : {0u, 1u, 2u})
      expect_greedy_batch_equivalence(
          g, SpannerParams{.k = 3, .f = f, .model = model},
          EdgeOrder::by_weight, 9021);
}

TEST(LbcBatch, GreedyPicksMatchUnbatchedFaultFree) {
  // f == 0 routes accepts through the in-place tree graft
  // (extend_batch_after_accept) instead of re-beginning the batch; picks,
  // call counts, and sweeps must be indistinguishable from the per-edge
  // engine.  The hub-heavy R-MAT instance is the case that matters: its
  // long same-source runs take many accepts per shared tree.
  Rng rng(9023);
  for (const FaultModel model : {FaultModel::vertex, FaultModel::edge}) {
    const Graph g = gnp(64, 0.15, rng);
    expect_greedy_batch_equivalence(
        g, SpannerParams{.k = 2, .f = 0, .model = model}, EdgeOrder::input,
        9023);
  }
  const Graph hubs = rmat(8, 8, rng);
  expect_greedy_batch_equivalence(hubs, SpannerParams{.k = 2, .f = 0},
                                  EdgeOrder::input, 9023);
  expect_greedy_batch_equivalence(hubs, SpannerParams{.k = 3, .f = 0},
                                  EdgeOrder::input, 9023);

  // The graft path must actually have run.
  ModifiedGreedyConfig config;
  const auto build =
      modified_greedy_spanner(hubs, SpannerParams{.k = 2, .f = 0}, config);
  EXPECT_GT(build.stats.tree_extends, 0u);
}

TEST(LbcBatch, GreedyPicksMatchUnbatchedRandomOrder) {
  // Random order scatters same-endpoint runs, so batches are short and the
  // singleton fast path dominates — results must still be identical.
  Rng rng(9022);
  const Graph g = gnp(48, 0.2, rng);
  expect_greedy_batch_equivalence(g, SpannerParams{.k = 2, .f = 1},
                                  EdgeOrder::random, 9022);
  expect_greedy_batch_equivalence(g, SpannerParams{.k = 2, .f = 0},
                                  EdgeOrder::random, 9022);
}

}  // namespace
}  // namespace ftspan
