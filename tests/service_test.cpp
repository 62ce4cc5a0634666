// Churn maintenance differential: under random insert/remove streams the
// incrementally maintained spanner must stay a valid f-FT (2k-1)-spanner of
// the live mesh — verified against the same oracle a from-scratch
// modified_greedy_spanner rebuild passes (picks need NOT match; the
// verifier's report must).  Plus the service-layer contracts: update
// argument errors, resurrect semantics, epoch publishing, the staleness
// budget, and the ftspand framed protocol over a loopback socket.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/modified_greedy.h"
#include "fault/verifier.h"
#include "graph/generators.h"
#include "graph/subgraph.h"
#include "service/churn_spanner.h"
#include "service/ftspand.h"
#include "util/rng.h"

namespace ftspan::service {
namespace {

using VertexPair = std::pair<VertexId, VertexId>;

VertexPair ordered(VertexId u, VertexId v) {
  return u < v ? VertexPair{u, v} : VertexPair{v, u};
}

/// Mirror of the live edge set, for generating valid random updates without
/// reaching into the engine's internals.
struct EdgeMirror {
  std::set<VertexPair> live;
  std::vector<VertexPair> all_pairs;
  // Resurrected edges must keep their original weight (the engine's arc
  // store is append-only), so remember every weight we ever assigned.
  std::map<VertexPair, Weight> weights;

  explicit EdgeMirror(const Graph& g) {
    for (const auto& e : g.edges()) {
      live.insert(ordered(e.u, e.v));
      weights[ordered(e.u, e.v)] = e.w;
    }
    for (VertexId u = 0; u < g.n(); ++u)
      for (VertexId v = u + 1; v < g.n(); ++v) all_pairs.push_back({u, v});
  }

  /// A uniformly random absent pair (linear probe from a random start).
  VertexPair absent(Rng& rng) const {
    const auto start = rng.next_below(all_pairs.size());
    for (std::size_t i = 0; i < all_pairs.size(); ++i) {
      const auto& p = all_pairs[(start + i) % all_pairs.size()];
      if (live.count(p) == 0) return p;
    }
    ADD_FAILURE() << "graph is complete; cannot insert";
    return {0, 1};
  }

  VertexPair present(Rng& rng) const {
    auto it = live.begin();
    std::advance(it, static_cast<long>(rng.next_below(live.size())));
    return *it;
  }
};

/// Runs `batches` x `batch_size` random updates against a ChurnSpanner and
/// checks, after every batch, that the maintained spanner verifies on the
/// live mesh (and that a from-scratch greedy rebuild of the same mesh also
/// verifies — the differential reference).
void churn_differential(const SpannerParams& params, bool weighted,
                        std::uint64_t seed, int batches, int batch_size) {
  Rng rng(seed);
  Graph start = gnp(40, 0.16, rng);
  if (weighted) start = with_uniform_weights(start, 1.0, 8.0, rng);
  EdgeMirror mirror(start);

  ChurnConfig config;
  config.params = params;
  config.rebuild_budget = 0;  // pure incremental maintenance: no re-anchor
  config.publish_every = 1;
  ChurnSpanner engine(std::move(start), config);

  for (int b = 0; b < batches; ++b) {
    for (int i = 0; i < batch_size; ++i) {
      const bool do_insert = mirror.live.empty() || rng.next_bool(0.55);
      if (do_insert) {
        const auto [u, v] = mirror.absent(rng);
        auto& w = mirror.weights[{u, v}];
        if (w == 0.0) w = weighted ? 1.0 + 7.0 * rng.next_double() : 1.0;
        engine.insert(u, v, w);
        mirror.live.insert({u, v});
      } else {
        const auto [u, v] = mirror.present(rng);
        engine.remove(u, v);
        mirror.live.erase({u, v});
      }
    }
    ASSERT_EQ(engine.live_m(), mirror.live.size());

    const Graph live = engine.live_graph();
    const Graph maintained = engine.spanner_graph();
    Rng verify_rng(seed + static_cast<std::uint64_t>(b));
    const auto report =
        verify_sampled(live, maintained, params, 24, verify_rng);
    ASSERT_TRUE(report.ok)
        << "maintained spanner violated after batch " << b << ": stretch "
        << report.max_stretch << " > " << params.stretch() << " (pair "
        << report.worst.u << "," << report.worst.v << ")";

    // Differential reference: the from-scratch rebuild passes the same
    // check.  Picks need not match — only the verifier's verdict must.
    const auto fresh = modified_greedy_spanner(live, params);
    Rng fresh_rng(seed + static_cast<std::uint64_t>(b));
    ASSERT_TRUE(
        verify_sampled(live, fresh.spanner, params, 24, fresh_rng).ok);
  }

  // Ground truth at the end of the stream: exhaustive over all |F| <= f.
  const auto final_report = verify_exhaustive(
      engine.live_graph(), engine.spanner_graph(), params);
  EXPECT_TRUE(final_report.ok)
      << "exhaustive: stretch " << final_report.max_stretch;
}

TEST(ChurnSpanner, DifferentialVertexModelUnweighted) {
  churn_differential(SpannerParams{.k = 2, .f = 2, .model = FaultModel::vertex},
                     /*weighted=*/false, 101, /*batches=*/10, /*batch_size=*/8);
}

TEST(ChurnSpanner, DifferentialEdgeModelUnweighted) {
  churn_differential(SpannerParams{.k = 2, .f = 2, .model = FaultModel::edge},
                     /*weighted=*/false, 202, /*batches=*/10, /*batch_size=*/8);
}

TEST(ChurnSpanner, DifferentialVertexModelWeighted) {
  churn_differential(SpannerParams{.k = 2, .f = 1, .model = FaultModel::vertex},
                     /*weighted=*/true, 303, /*batches=*/8, /*batch_size=*/8);
}

TEST(ChurnSpanner, DifferentialEdgeModelWeighted) {
  churn_differential(SpannerParams{.k = 2, .f = 1, .model = FaultModel::edge},
                     /*weighted=*/true, 404, /*batches=*/8, /*batch_size=*/8);
}

TEST(ChurnSpanner, RemovalOfSpannerEdgeRepairsAffectedDecisions) {
  // In K8 with k=2, f=0 the greedy keeps a sparse H; removing one of its
  // edges strands the excluded edges that certified through it, so the
  // repair wave must re-pick some decisions and H must verify afterwards.
  ChurnConfig config;
  config.params = SpannerParams{.k = 2, .f = 0, .model = FaultModel::vertex};
  config.rebuild_budget = 0;
  ChurnSpanner engine(complete_graph(8), config);
  ASSERT_LT(engine.spanner_m(), engine.live_m());

  const Graph h0 = engine.spanner_graph();
  const Edge first = h0.edge(0);
  engine.remove(first.u, first.v);
  EXPECT_GT(engine.stats().repair_decisions, 0u);
  EXPECT_TRUE(verify_exhaustive(engine.live_graph(), engine.spanner_graph(),
                                config.params)
                  .ok);
}

TEST(ChurnSpanner, WeightedDetourOverBudgetDoesNotSpan) {
  // The decision budget is exactly t * w(e), the bound the verifier checks:
  // on the path 0-1-2-3 a detour of weight 3 + 5e-10 does not span the new
  // edge {0,3} of weight 1 at k = 2 (t = 3), so the edge must enter H and
  // the maintained spanner must verify.
  Graph path(4, /*weighted=*/true);
  path.add_edge(0, 1, 1.0);
  path.add_edge(1, 2, 1.0);
  path.add_edge(2, 3, 1.0000000005);
  ChurnConfig config;
  config.params = SpannerParams{.k = 2, .f = 0};
  config.rebuild_budget = 0;
  ChurnSpanner engine(std::move(path), config);
  EXPECT_TRUE(engine.insert(0, 3, 1.0).in_spanner);
  Rng rng(1);
  const OracleReport check = engine.oracle_check(4, rng);
  EXPECT_TRUE(check.report.ok) << "max stretch " << check.report.max_stretch;
}

TEST(ChurnSpanner, UpdateArgumentErrors) {
  ChurnConfig config;
  config.params = SpannerParams{.k = 2, .f = 1};
  ChurnSpanner engine(grid_graph(3, 3), config);

  EXPECT_THROW(engine.insert(0, 0), std::invalid_argument);       // loop
  EXPECT_THROW(engine.insert(0, 1), std::invalid_argument);       // duplicate
  EXPECT_THROW(engine.insert(0, 99), std::invalid_argument);      // range
  EXPECT_THROW(engine.remove(0, 8), std::invalid_argument);       // absent
  EXPECT_THROW(engine.remove(99, 0), std::invalid_argument);      // range

  engine.remove(0, 1);
  EXPECT_THROW(engine.remove(0, 1), std::invalid_argument);  // already dead
  engine.insert(0, 1);                                       // resurrect ok
  EXPECT_THROW(engine.insert(0, 1), std::invalid_argument);  // live again
}

TEST(ChurnSpanner, ResurrectKeepsWeightContract) {
  Rng rng(9);
  Graph g = with_uniform_weights(gnp(12, 0.4, rng), 1.0, 5.0, rng);
  const Edge e = g.edge(0);
  ChurnConfig config;
  config.params = SpannerParams{.k = 2, .f = 1};
  ChurnSpanner engine(std::move(g), config);

  engine.remove(e.u, e.v);
  EXPECT_THROW(engine.insert(e.u, e.v, e.w + 1.0), std::invalid_argument);
  const auto r = engine.insert(e.u, e.v, e.w);
  EXPECT_EQ(engine.live_m(), engine.snapshot()->graph.m());
  (void)r;
}

TEST(ChurnSpanner, EpochsPublishOnSchedule) {
  ChurnConfig config;
  config.params = SpannerParams{.k = 2, .f = 1};
  config.publish_every = 4;
  config.rebuild_budget = 0;
  ChurnSpanner engine(grid_graph(4, 4), config);
  const auto epoch0 = engine.snapshot()->epoch;

  engine.remove(0, 1);
  engine.remove(0, 4);
  engine.insert(0, 5);
  EXPECT_EQ(engine.snapshot()->epoch, epoch0);  // 3 updates: not yet
  engine.insert(0, 2);
  EXPECT_EQ(engine.snapshot()->epoch, epoch0 + 1);  // 4th publishes

  const auto flushed = engine.flush();
  EXPECT_EQ(flushed, epoch0 + 2);
  EXPECT_EQ(engine.snapshot()->epoch, epoch0 + 2);
  // The published snapshot carries the updater's stats at publish time.
  EXPECT_EQ(engine.snapshot()->stats.inserts, 2u);
  EXPECT_EQ(engine.snapshot()->stats.removals, 2u);
}

TEST(ChurnSpanner, StalenessBudgetTriggersRebuild) {
  ChurnConfig config;
  config.params = SpannerParams{.k = 2, .f = 1};
  config.rebuild_budget = 5;
  config.publish_every = 100;  // rebuild publishes regardless
  ChurnSpanner engine(grid_graph(4, 4), config);
  ASSERT_EQ(engine.stats().rebuilds, 1u);  // the constructor's oracle build

  engine.remove(0, 1);
  engine.remove(1, 2);
  engine.remove(2, 3);
  engine.remove(0, 4);
  EXPECT_EQ(engine.stats().rebuilds, 1u);
  EXPECT_EQ(engine.updates_since_rebuild(), 4u);
  engine.insert(0, 1);  // 5th update trips the budget
  EXPECT_EQ(engine.stats().rebuilds, 2u);
  EXPECT_EQ(engine.updates_since_rebuild(), 0u);
  // The rebuild compacted the arc universe down to the live mesh.
  EXPECT_EQ(engine.snapshot()->graph.m(), engine.live_m());
  EXPECT_TRUE(verify_exhaustive(engine.live_graph(), engine.spanner_graph(),
                                config.params)
                  .ok);
}

TEST(ChurnSpanner, OracleCheckVerifiesMaintainedSpanner) {
  ChurnConfig config;
  config.params = SpannerParams{.k = 2, .f = 1};
  config.rebuild_budget = 0;
  Rng rng(11);
  ChurnSpanner engine(gnp(24, 0.3, rng), config);
  engine.remove(engine.snapshot()->graph.edge(0).u,
                engine.snapshot()->graph.edge(0).v);
  Rng verify_rng(1);
  const auto oracle = engine.oracle_check(16, verify_rng, {}, true);
  EXPECT_TRUE(oracle.report.ok);
  EXPECT_EQ(oracle.maintained_m, engine.spanner_m());
  EXPECT_GT(oracle.oracle_m, 0u);
}

// ----------------------------------------------------------- ftspand

TEST(Ftspand, FramedProtocolOverLoopback) {
  ChurnConfig config;
  config.params = SpannerParams{.k = 2, .f = 1};
  config.publish_every = 1;
  ServeOptions options;  // TCP, ephemeral port
  Ftspand daemon(grid_graph(4, 4), config, options);
  ASSERT_NE(daemon.port(), 0);
  std::thread server([&] { daemon.run(); });

  const int fd = connect_tcp(daemon.port());
  std::string reply;
  const auto ask = [&](const std::string& cmd) {
    write_frame(fd, cmd);
    EXPECT_TRUE(read_frame(fd, reply)) << cmd;
    return reply;
  };

  EXPECT_EQ(ask("ping"), "ok pong");
  EXPECT_EQ(ask("stats").substr(0, 11), "ok epoch=1 ");
  // Grid 4x4: (0,1) exists, (0,5) is a diagonal and does not.
  EXPECT_EQ(ask("insert 0 5").substr(0, 2), "ok");
  EXPECT_EQ(ask("insert 0 5").substr(0, 3), "err");  // duplicate
  EXPECT_EQ(ask("remove 0 1").substr(0, 2), "ok");
  EXPECT_EQ(ask("dist 0 1").substr(0, 2), "ok");
  EXPECT_NE(ask("dist 0 1").find("mesh="), std::string::npos);
  EXPECT_NE(ask("route 0 15").find("path=0"), std::string::npos);
  EXPECT_EQ(ask("route 0 99").substr(0, 3), "err");  // out of range
  EXPECT_EQ(ask("verify 8").substr(0, 11), "ok verified");
  EXPECT_EQ(ask("flush").substr(0, 2), "ok");
  EXPECT_EQ(ask("nonsense").substr(0, 3), "err");
  EXPECT_EQ(ask("shutdown"), "ok bye");

  server.join();
  ::close(fd);
}

TEST(Ftspand, HandleDispatchInProcess) {
  ChurnConfig config;
  config.params = SpannerParams{.k = 2, .f = 1};
  Ftspand daemon(grid_graph(3, 3), config, ServeOptions{});

  EXPECT_EQ(daemon.handle("ping"), "ok pong");
  EXPECT_EQ(daemon.handle("").substr(0, 3), "err");
  EXPECT_EQ(daemon.handle("insert 1").substr(0, 3), "err");
  EXPECT_EQ(daemon.handle("insert 0 0").substr(0, 3), "err");
  EXPECT_EQ(daemon.handle("insert 0 4 2.5").substr(0, 3), "err");  // weight
  EXPECT_EQ(daemon.handle("insert 0 4").substr(0, 2), "ok");
  EXPECT_EQ(daemon.handle("remove 0 4").substr(0, 2), "ok");
  EXPECT_EQ(daemon.handle("rebuild").substr(0, 2), "ok");
  EXPECT_EQ(daemon.handle("dist 0 8").substr(0, 2), "ok");
}

}  // namespace
}  // namespace ftspan::service
