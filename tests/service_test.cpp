// Churn maintenance differential: under random insert/remove streams the
// incrementally maintained spanner must stay a valid f-FT (2k-1)-spanner of
// the live mesh — verified against the same oracle a from-scratch
// modified_greedy_spanner rebuild passes (picks need NOT match; the
// verifier's report must).  Plus the service-layer contracts: update
// argument errors, resurrect semantics, epoch publishing and the shared
// mesh behind it, the search copy of H, snapshot routes against the
// masked search, the staleness budget, readers racing the updater, and the
// ftspand framed protocol over a loopback socket.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/modified_greedy.h"
#include "fault/verifier.h"
#include "graph/generators.h"
#include "graph/search.h"
#include "graph/subgraph.h"
#include "obs/obs.h"
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

/// Drives a ChurnSpanner (built with rebuild_budget = 0) through every way G
/// and H change: inserts of pairs G does not hold (appends), resurrects of
/// pairs removed since the last rebuild, removals of H edges and of other
/// live edges, and explicit rebuilds.
struct ChurnStream {
  ChurnStream(ChurnSpanner& e, EdgeMirror& m, bool w = false)
      : engine(e), mirror(m), weighted(w) {}

  ChurnSpanner& engine;
  EdgeMirror& mirror;
  bool weighted;
  std::set<VertexPair> dead;  ///< removed since the last rebuild (still in G)
  std::size_t appends = 0;
  std::size_t resurrects = 0;
  std::size_t h_removals = 0;

  void append(Rng& rng) {
    VertexPair p = mirror.absent(rng);
    while (dead.count(p) != 0) p = mirror.absent(rng);
    auto& w = mirror.weights[p];
    if (w == 0.0) w = weighted ? 1.0 + 7.0 * rng.next_double() : 1.0;
    engine.insert(p.first, p.second, w);
    mirror.live.insert(p);
    ++appends;
  }

  void remove(VertexPair p) {
    engine.remove(p.first, p.second);
    mirror.live.erase(p);
    dead.insert(p);
  }

  void step(Rng& rng) {
    const auto op = rng.next_below(4);
    if (op == 0 || mirror.live.empty()) {
      append(rng);
    } else if (op == 1 && !dead.empty()) {
      auto it = dead.begin();
      std::advance(it, static_cast<long>(rng.next_below(dead.size())));
      const VertexPair p = *it;
      engine.insert(p.first, p.second, mirror.weights.at(p));
      dead.erase(it);
      mirror.live.insert(p);
      ++resurrects;
    } else if (op == 2 && engine.spanner_m() > 0) {
      const Graph h = engine.spanner_graph();
      const Edge e = h.edge(static_cast<EdgeId>(rng.next_below(h.m())));
      remove(ordered(e.u, e.v));
      ++h_removals;
    } else {
      remove(mirror.present(rng));
    }
  }

  void rebuild() {
    engine.rebuild();
    dead.clear();  // the rebuild drops dead edges from G
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

TEST(ChurnSpanner, SnapshotsShareTheMeshUntilAnAppend) {
  obs::reset_for_testing();
  obs::metrics_start();
  const auto copies = [] {
    for (const auto& [name, value] : obs::metrics_snapshot().counters)
      if (name == "service.graph_copies") return value;
    return std::uint64_t{0};
  };
  ChurnConfig config;
  config.params = SpannerParams{.k = 2, .f = 1};
  config.publish_every = 2;
  config.rebuild_budget = 0;
  ChurnSpanner engine(grid_graph(4, 4), config);
  EXPECT_EQ(copies(), 0u);  // the first epoch shares the build itself

  // A removal and a resurrect append nothing: both epochs share one Graph.
  const auto first = engine.snapshot();
  engine.remove(0, 1);
  engine.insert(0, 1);
  const auto second = engine.snapshot();
  EXPECT_EQ(second->epoch, first->epoch + 1);
  EXPECT_EQ(&first->graph, &second->graph);
  EXPECT_EQ(copies(), 0u);

  // Inserts of new pairs append to the updater's own G, and the next
  // publish copies it once, so the earlier snapshot keeps its m() and its
  // edges.
  const std::vector<Edge> edges(second->graph.edges().begin(),
                                second->graph.edges().end());
  engine.insert(0, 5);  // diagonals, absent from the grid
  engine.insert(1, 6);
  const auto third = engine.snapshot();
  EXPECT_EQ(copies(), 1u);
  EXPECT_NE(&second->graph, &third->graph);
  EXPECT_EQ(second->graph.m(), edges.size());
  EXPECT_TRUE(std::equal(edges.begin(), edges.end(),
                         second->graph.edges().begin(),
                         second->graph.edges().end()));
  EXPECT_FALSE(second->graph.has_edge(0, 5));
  EXPECT_FALSE(second->graph.has_edge(1, 6));
  EXPECT_EQ(third->graph.m(), edges.size() + 2);
  EXPECT_TRUE(third->graph.has_edge(0, 5));
  EXPECT_TRUE(third->graph.has_edge(1, 6));
  obs::reset_for_testing();
}

TEST(ChurnSpanner, SearchGraphHoldsExactlyTheSpannerAfterEveryUpdate) {
  // Decisions and repair waves search the engine's own copy of H.  After
  // every update — appends, resurrects, H removals, other removals, and a
  // rebuild midway — its unmasked edges must be exactly the spanner's.
  for (const bool weighted : {false, true}) {
    Rng rng(weighted ? 606 : 505);
    Graph start = gnp(36, 0.18, rng);
    if (weighted) start = with_uniform_weights(start, 1.0, 8.0, rng);
    EdgeMirror mirror(start);
    ChurnConfig config;
    config.params = SpannerParams{
        .k = 2, .f = 1,
        .model = weighted ? FaultModel::edge : FaultModel::vertex};
    config.rebuild_budget = 0;
    config.publish_every = 3;
    ChurnSpanner engine(std::move(start), config);
    ChurnStream churn(engine, mirror, weighted);

    const auto expect_mirrors_spanner = [&](int step) {
      std::map<VertexPair, Weight> spanner;
      const Graph spanner_h = engine.spanner_graph();
      for (const auto& e : spanner_h.edges()) spanner[ordered(e.u, e.v)] = e.w;
      std::map<VertexPair, Weight> searched;
      const Graph& h = engine.search_graph();
      const FaultView view = engine.search_view();
      for (EdgeId e = 0; e < h.m(); ++e) {
        if (view.edge_alive(e))
          searched[ordered(h.edge(e).u, h.edge(e).v)] = h.edge(e).w;
      }
      EXPECT_EQ(searched, spanner)
          << "weighted=" << weighted << " after update " << step;
      return searched == spanner;
    };
    ASSERT_TRUE(expect_mirrors_spanner(-1));
    for (int step = 0; step < 160; ++step) {
      if (step == 80) churn.rebuild();
      churn.step(rng);
      ASSERT_TRUE(expect_mirrors_spanner(step));
    }
    EXPECT_GT(churn.appends, 0u);
    EXPECT_GT(churn.resurrects, 0u);
    EXPECT_GT(churn.h_removals, 0u);
    EXPECT_GT(engine.stats().repair_promotions, 0u) << "weighted=" << weighted;
  }
}

/// True when consecutive vertices of `path` are joined by live H edges of
/// `snap` (G is simple, so the pair names one edge).
bool uses_live_spanner_edges(const ChurnSnapshot& snap,
                             const std::vector<VertexId>& path) {
  for (std::size_t i = 1; i < path.size(); ++i) {
    const auto e = snap.graph.find_edge(path[i - 1], path[i]);
    if (!e || snap.blocked[*e] != 0) return false;
  }
  return true;
}

TEST(ChurnSpanner, SnapshotRouteMatchesTheMaskedSearch) {
  // snapshot_route searches G under spanner_view() until a snapshot's
  // routes have paid for its compact H, then that H.  On both sides of the
  // switch, for both fault models and weighted and unweighted meshes, each
  // route's hop count and cost must equal the one-ended search over G
  // under spanner_view(), and its path must use only live H edges.
  for (const FaultModel model : {FaultModel::vertex, FaultModel::edge}) {
    for (const bool weighted : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "model=" << to_string(model)
                                        << " weighted=" << weighted);
      Rng rng(weighted ? 515 : 514);
      Graph start = gnp(48, 0.12, rng);
      if (weighted) start = with_uniform_weights(start, 1.0, 8.0, rng);
      const std::size_t n = start.n();
      EdgeMirror mirror(start);
      ChurnConfig config;
      config.params = SpannerParams{.k = 2, .f = 1, .model = model};
      config.rebuild_budget = 0;
      config.publish_every = 1;
      ChurnSpanner engine(std::move(start), config);
      ChurnStream churn(engine, mirror, weighted);
      BfsRunner bfs(n), ref_bfs(n);
      DijkstraRunner dij(n), ref_dij(n);
      Route route;
      std::vector<PathStep> ref;
      for (int epoch = 0; epoch < 6; ++epoch) {
        for (int i = 0; i < 12; ++i) churn.step(rng);
        const auto snap = engine.snapshot();
        const Graph& g = snap->graph;
        const FaultView view = snap->spanner_view();
        std::size_t masked = 0, compact = 0;
        for (int q = 0; compact < 40; ++q) {
          ASSERT_LT(q, 10000) << "the routes never paid for the compact H";
          const auto u = static_cast<VertexId>(rng.next_below(n));
          const auto v = static_cast<VertexId>(rng.next_below(n));
          ++(snap->compact_spanner() != nullptr ? compact : masked);
          const bool want = weighted
                                ? ref_dij.shortest_path_arcs(g, u, v, ref, view)
                                : ref_bfs.shortest_path_arcs(g, u, v, ref, view);
          ASSERT_EQ(snapshot_route(*snap, bfs, dij, u, v, route), want)
              << u << "->" << v;
          if (!want) {
            EXPECT_TRUE(route.path.empty());
            continue;
          }
          Weight cost = 0.0;
          for (std::size_t i = 1; i < ref.size(); ++i) cost += g.edge(ref[i].edge).w;
          EXPECT_EQ(route.hops(), ref.size() - 1) << u << "->" << v;
          EXPECT_EQ(route.cost, cost) << u << "->" << v;
          EXPECT_EQ(route.path.front(), u);
          EXPECT_EQ(route.path.back(), v);
          EXPECT_TRUE(uses_live_spanner_edges(*snap, route.path))
              << u << "->" << v;
        }
        EXPECT_GT(masked, 0u);
        const Graph* h = snap->compact_spanner();
        ASSERT_NE(h, nullptr);
        EXPECT_EQ(h->m(), snap->spanner_m);
        const Graph want = engine.spanner_graph();
        EXPECT_TRUE(std::equal(h->edges().begin(), h->edges().end(),
                               want.edges().begin(), want.edges().end()));
      }
    }
  }
}

TEST(ChurnSpanner, ReadersRouteOnSnapshotsWhileTheUpdaterAppends) {
  // Readers route and measure on whatever snapshot they hold while the
  // updater appends new pairs (so publishes copy the mesh), removes H edges
  // and rebuilds; their routes pay for and build the compact H of the
  // snapshots they share.  Every answer must be a
  // valid path in, and consistent with, the snapshot it came from; under
  // ThreadSanitizer this also checks that sharing one Graph between the
  // updater and the readers, and one reader's H build with the others, is
  // race-free.
  Rng rng(77);
  Graph start = gnp(40, 0.15, rng);
  const std::size_t n = start.n();
  EdgeMirror mirror(start);
  ChurnConfig config;
  config.params = SpannerParams{.k = 2, .f = 1};
  config.rebuild_budget = 0;
  config.publish_every = 2;
  ChurnSpanner engine(std::move(start), config);
  const Weight t = config.params.stretch();

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> answers{0};
  std::atomic<std::uint64_t> compact_answers{0};
  std::atomic<std::uint64_t> bad{0};
  std::vector<std::thread> readers;
  for (std::uint64_t r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Rng qrng(1000 + r);
      BfsRunner bfs(n);
      DijkstraRunner dij(n);
      Route route;
      int after_done = 0;
      do {
        const auto snap = engine.snapshot();
        const auto u = static_cast<VertexId>(qrng.next_below(n));
        const auto v = static_cast<VertexId>((u + 1 + qrng.next_below(n - 1)) % n);
        const Weight mesh = snapshot_distance(*snap, dij, u, v, snap->mesh_view());
        const Weight span =
            snapshot_distance(*snap, dij, u, v, snap->spanner_view());
        bool ok = span >= mesh && (mesh == kUnreachableWeight || span <= t * mesh);
        if (snap->compact_spanner() != nullptr) compact_answers.fetch_add(1);
        if (snapshot_route(*snap, bfs, dij, u, v, route)) {
          ok = ok && route.path.front() == u && route.path.back() == v &&
               static_cast<Weight>(route.hops()) == span && route.cost == span &&
               uses_live_spanner_edges(*snap, route.path);
        } else {
          ok = ok && span == kUnreachableWeight;
        }
        if (!ok) bad.fetch_add(1);
        answers.fetch_add(1);
        // Keep routing on the last snapshot until some answer came from a
        // built H, however the threads were scheduled; its routes pay for
        // one long before the cap.
      } while (!done.load() ||
               (compact_answers.load() == 0 && ++after_done < 10000));
    });
  }

  while (answers.load() < readers.size()) std::this_thread::yield();
  ChurnStream churn(engine, mirror);
  for (int step = 0; step < 240; ++step) {
    if (step % 80 == 79) churn.rebuild();
    if (step % 3 == 0) {
      churn.append(rng);
    } else {
      churn.step(rng);
    }
  }
  done.store(true);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(bad.load(), 0u) << "of " << answers.load() << " answers";
  EXPECT_GT(answers.load(), compact_answers.load());
  EXPECT_GT(compact_answers.load(), 0u);
  EXPECT_GT(churn.h_removals, 0u);
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
  const auto oracle = engine.oracle_check(16, verify_rng);
  EXPECT_TRUE(oracle.report.ok);
  EXPECT_EQ(oracle.maintained_m, engine.spanner_m());
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

  // Numeric arguments parse whole: a bad token replies an err naming it,
  // never a truncated or wrapped value (verify -1 once meant 2^32 - 1
  // trials under the update lock).
  const auto rejects = [&](const std::string& request, const std::string& tok) {
    const std::string reply = daemon.handle(request);
    EXPECT_EQ(reply.substr(0, 4), "err ") << request << " -> " << reply;
    EXPECT_NE(reply.find("'" + tok + "'"), std::string::npos)
        << request << " -> " << reply;
  };
  rejects("insert 0 4 1x", "1x");
  rejects("insert 0 4 inf", "inf");
  rejects("insert 0 4 nan", "nan");
  rejects("insert 0 4 1e999", "1e999");
  rejects("verify 3abc", "3abc");
  rejects("verify -1", "-1");
  rejects("verify +3", "+3");
  rejects("verify 99999999999", "99999999999");
  rejects("verify 4294967296", "4294967296");
  EXPECT_EQ(daemon.handle("verify 3").substr(0, 11), "ok verified");
  EXPECT_EQ(daemon.handle("insert 0 4 1.0").substr(0, 2), "ok");
}

TEST(Ftspand, ClientsQueryWhileAnotherClientUpdates) {
  // Two reader connections route and measure on snapshots while a third
  // connection appends new pairs, removes edges and rebuilds; every reply
  // must be ok, and every route must run between the vertices asked for.
  ChurnConfig config;
  config.params = SpannerParams{.k = 2, .f = 1};
  config.publish_every = 2;
  Ftspand daemon(grid_graph(6, 6), config, ServeOptions{});
  std::thread server([&] { daemon.run(); });

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> bad{0};
  std::vector<std::thread> readers;
  for (std::uint64_t r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      const int fd = connect_tcp(daemon.port());
      Rng qrng(2000 + r);
      std::string reply;
      do {
        const auto u = qrng.next_below(36);
        const auto v = (u + 1 + qrng.next_below(35)) % 36;
        const std::string pair = std::to_string(u) + " " + std::to_string(v);
        write_frame(fd, "dist " + pair);
        if (!read_frame(fd, reply) || reply.rfind("ok epoch=", 0) != 0) ++bad;
        write_frame(fd, "route " + pair);
        if (!read_frame(fd, reply) || reply.rfind("ok epoch=", 0) != 0) {
          ++bad;
        } else if (const auto at = reply.find(" path="); at != std::string::npos) {
          const std::string path = reply.substr(at + 6);
          if (path.rfind(std::to_string(u) + ">", 0) != 0 ||
              path.substr(path.rfind('>') + 1) != std::to_string(v))
            ++bad;
        }
      } while (!done.load());
      ::close(fd);
    });
  }

  const int fd = connect_tcp(daemon.port());
  std::string reply;
  const auto ask = [&](const std::string& cmd) {
    write_frame(fd, cmd);
    EXPECT_TRUE(read_frame(fd, reply)) << cmd;
    EXPECT_EQ(reply.substr(0, 3), "ok ") << cmd << " -> " << reply;
  };
  for (VertexId i = 0; i < 5; ++i) {
    const std::string diag = std::to_string(i) + " " + std::to_string(i + 7);
    ask("insert " + diag);  // a diagonal: a new pair, appended to G
    ask("remove " + std::to_string(i) + " " + std::to_string(i + 1));
    if (i == 2) ask("rebuild");
    ask("remove " + diag);
    ask("insert " + diag);  // resurrected, or appended after the rebuild
  }
  ask("flush");
  done.store(true);
  for (auto& reader : readers) reader.join();
  ask("shutdown");
  server.join();
  ::close(fd);
  EXPECT_EQ(bad.load(), 0u);
}

TEST(Ftspand, SocketRequestsCountOnce) {
  // Every frame a client sends is one request in service.requests, whether
  // it takes the lock-free query path or the update path through handle().
  obs::reset_for_testing();
  obs::metrics_start();
  {
    ChurnConfig config;
    config.params = SpannerParams{.k = 2, .f = 1};
    Ftspand daemon(grid_graph(4, 4), config, ServeOptions{});
    std::thread server([&] { daemon.run(); });
    const int fd = connect_tcp(daemon.port());
    const std::vector<std::string> frames = {
        "ping",       "stats",     "insert 0 5", "remove 0 1", "dist 0 1",
        "route 0 15", "verify 2",  "flush",      "rebuild",    "insert 0 0",
        "nonsense",   "",          "shutdown"};
    std::string reply;
    for (const auto& frame : frames) {
      write_frame(fd, frame);
      EXPECT_TRUE(read_frame(fd, reply)) << frame;
    }
    server.join();
    ::close(fd);
    std::uint64_t requests = 0;
    for (const auto& [name, value] : obs::metrics_snapshot().counters)
      if (name == "service.requests") requests = value;
    EXPECT_EQ(requests, frames.size());
  }
  obs::reset_for_testing();
}

}  // namespace
}  // namespace ftspan::service
