// Tests for fault/verifier.h and fault/attack.h.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/modified_greedy.h"
#include "fault/attack.h"
#include "fault/scenario.h"
#include "fault/verifier.h"
#include "graph/generators.h"
#include "graph/search.h"
#include "test_util.h"
#include "util/rng.h"

namespace ftspan {
namespace {

TEST(Verifier, GraphIsAlwaysItsOwnSpanner) {
  const Graph g = petersen_graph();
  const SpannerParams params{.k = 2, .f = 2};
  const auto report = verify_exhaustive(g, g, params);
  EXPECT_TRUE(report.ok);
  EXPECT_LE(report.max_stretch, 1.0 + 1e-9);
}

TEST(Verifier, SpanningTreeOfCycleFailsUnderOneFault) {
  const Graph g = cycle_graph(6);
  Graph h(6);  // the path 0-1-2-3-4-5: drop edge {5,0}
  for (VertexId v = 0; v + 1 < 6; ++v) h.add_edge(v, v + 1);
  const SpannerParams params{.k = 2, .f = 1};
  // Without faults the stretch for edge {5,0} is 5 > 3 already.
  const auto report = verify_exhaustive(g, h, params);
  EXPECT_FALSE(report.ok);
  EXPECT_GE(report.max_stretch, 5.0);
}

TEST(Verifier, DetectsFaultOnlyViolations) {
  // K4 minus nothing vs spanner = triangle fan: g = K4, h = star at 0.
  const Graph g = complete_graph(4);
  const Graph h = star_graph(4);
  const SpannerParams params{.k = 2, .f = 1};
  // With F = {} the star has stretch 2 <= 3: fine.  With F = {0} the
  // remaining vertices are isolated in H but adjacent in G: violation.
  const auto empty_report =
      check_fault_set(g, h, params, FaultSet{FaultModel::vertex, {}});
  EXPECT_TRUE(empty_report.ok);
  const auto report = verify_exhaustive(g, h, params);
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.worst.faults.ids.size(), 1u);
  EXPECT_EQ(report.worst.faults.ids[0], 0u);
  EXPECT_TRUE(std::isinf(report.max_stretch));
}

TEST(Verifier, EdgeFaultModel) {
  const Graph g = cycle_graph(4);
  Graph h(4);
  h.add_edge(0, 1);
  h.add_edge(1, 2);
  h.add_edge(2, 3);  // h = path, missing {3,0}
  const SpannerParams params{.k = 2, .f = 1, .model = FaultModel::edge};
  const auto report = verify_exhaustive(g, h, params);
  EXPECT_FALSE(report.ok);  // already the empty set: d_h(3,0)=3 <= 3 ok...
  // precisely: F={} gives stretch 3 (ok); F={edge(0,1)} kills H's detour.
}

TEST(Verifier, ExhaustiveCountsAreRight) {
  const Graph g = complete_graph(5);
  const SpannerParams params{.k = 2, .f = 2};
  const auto report = verify_exhaustive(g, g, params);
  // C(5,0)+C(5,1)+C(5,2) = 1+5+10 = 16 fault sets.
  EXPECT_EQ(report.fault_sets_checked, 16u);
  EXPECT_GT(report.pairs_checked, 0u);
}

TEST(Verifier, SampledAgreesWithExhaustiveOnBadSpanner) {
  const Graph g = complete_graph(6);
  const Graph h = star_graph(6);
  const SpannerParams params{.k = 2, .f = 1};
  Rng rng(90);
  const auto report = verify_sampled(g, h, params, 100, rng);
  EXPECT_FALSE(report.ok);  // the attack mix must find the hub failure
}

TEST(Verifier, SampledFindsWitnessesSmallerThanF) {
  // Non-monotonicity gadget: G = K3, H = the path 0-1-2, k=2 (t=3), f=2,
  // vertex faults.  The only violation is F={1} (|F| = 1 < f): it leaves the
  // surviving G-edge {0,2} with d_H = infinity.  Every |F| = 2 set faults an
  // endpoint of every edge, so a sampler that only draws exact-size-f sets
  // can never see the violation and wrongly passes this spanner.  The size
  // mix (trial i requests f - (i mod (f+1))) must find it.
  const Graph g = complete_graph(3);
  Graph h(3);
  h.add_edge(0, 1);
  h.add_edge(1, 2);
  const SpannerParams params{.k = 2, .f = 2};

  const auto oracle = verify_exhaustive(g, h, params);
  ASSERT_FALSE(oracle.ok);
  ASSERT_EQ(oracle.worst.faults.ids.size(), 1u);  // the gadget's point

  Rng rng(7);
  const auto report = verify_sampled(g, h, params, 12, rng);
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(std::isinf(report.max_stretch));
  EXPECT_EQ(report.worst.faults.ids, std::vector<std::uint32_t>{1u});
  // Size-0 requests (every trial with i mod 3 == 2) are skipped, not
  // counted: the empty set is checked exactly once, up front.
  EXPECT_GT(report.trials_skipped, 0u);
  EXPECT_EQ(report.fault_sets_checked,
            1u + 12u - report.trials_skipped);
}

TEST(Verifier, CheckFaultSetRejectsModelMismatch) {
  const Graph g = cycle_graph(4);
  const SpannerParams params{.k = 2, .f = 1, .model = FaultModel::vertex};
  EXPECT_THROW(
      (void)check_fault_set(g, g, params, FaultSet{FaultModel::edge, {0}}),
      std::invalid_argument);
}

TEST(Verifier, WeightedStretchIsMeasured) {
  Graph g(3, true);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(0, 2, 2.0);
  Graph h(3, true);
  h.add_edge(0, 1, 1.0);
  h.add_edge(1, 2, 1.0);
  const SpannerParams params{.k = 1, .f = 0};
  // d_h(0,2) = 2 = d_g(0,2): stretch 1 (the edge {0,2} has weight 2 but the
  // shortest path in G is also 2, so t=1 still holds).
  const auto report = verify_exhaustive(g, h, params);
  EXPECT_TRUE(report.ok);
}

TEST(Verifier, ThreadedSampledVerificationIsBitIdentical) {
  // verify_sampled fans trials over the shared pool; the report — counts,
  // max stretch, and the worst witness — must match the sequential run
  // exactly at any thread count.
  Rng graph_rng(92);
  const Graph g = gnp(40, 0.25, graph_rng);
  Graph h(g.n());  // a deliberately bad "spanner": star on vertex 0's edges
  for (EdgeId id = 0; id < g.m(); ++id) {
    const auto& e = g.edge(id);
    if (e.u == 0 || e.v == 0) h.add_edge(e.u, e.v, e.w);
  }
  const SpannerParams params{.k = 2, .f = 2};

  Rng seq_rng(93);
  const auto sequential = verify_sampled(g, h, params, 60, seq_rng);
  for (const std::uint32_t threads : {2u, 4u, 8u}) {
    ExecPolicy exec;
    exec.threads = threads;
    Rng par_rng(93);
    const auto parallel = verify_sampled(g, h, params, 60, par_rng, exec);
    EXPECT_EQ(parallel.ok, sequential.ok) << "threads=" << threads;
    EXPECT_EQ(parallel.fault_sets_checked, sequential.fault_sets_checked);
    EXPECT_EQ(parallel.pairs_checked, sequential.pairs_checked);
    EXPECT_DOUBLE_EQ(parallel.max_stretch, sequential.max_stretch);
    EXPECT_EQ(parallel.worst.u, sequential.worst.u);
    EXPECT_EQ(parallel.worst.v, sequential.worst.v);
    EXPECT_DOUBLE_EQ(parallel.worst.d_g, sequential.worst.d_g);
    EXPECT_DOUBLE_EQ(parallel.worst.d_h, sequential.worst.d_h);
    EXPECT_EQ(parallel.worst.faults.ids, sequential.worst.faults.ids);
  }
}

TEST(Verifier, StretchWitnessIsReproducible) {
  const Graph g = cycle_graph(8);
  Graph h(8);
  for (VertexId v = 0; v + 1 < 8; ++v) h.add_edge(v, v + 1);
  const SpannerParams params{.k = 2, .f = 0};
  const auto report = verify_exhaustive(g, h, params);
  ASSERT_FALSE(report.ok);
  EXPECT_EQ(report.worst.u, 7u);
  EXPECT_EQ(report.worst.v, 0u);
  EXPECT_DOUBLE_EQ(report.worst.d_g, 1.0);
}

TEST(Verifier, ViolatingPairReadsAsInfinite) {
  // The H-side search is pruned at t * d_G, so a violating pair reports
  // d_h = infinity even though H still connects it: here d_H(5,0) = 5.
  const Graph g = cycle_graph(6);
  Graph h(6);
  for (VertexId v = 0; v + 1 < 6; ++v) h.add_edge(v, v + 1);
  const SpannerParams params{.k = 2, .f = 0};
  const auto report =
      check_fault_set(g, h, params, FaultSet{FaultModel::vertex, {}});
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(std::isinf(report.max_stretch));
  EXPECT_EQ(report.worst.u, 5u);
  EXPECT_EQ(report.worst.v, 0u);
  EXPECT_DOUBLE_EQ(report.worst.d_g, 1.0);
  EXPECT_TRUE(std::isinf(report.worst.d_h));
}

TEST(Verifier, StretchTieGoesToSmallestEdgeId) {
  // H is the path 0-1-...-7.  G adds two chords of H-length 4: edge 0 is
  // {7,3}, owned by source 7, and edge 1 is {0,4}, owned by source 0.  A
  // source-by-source scan reaches edge 1 first; the witness must still be
  // edge 0, the first pair in edge-id order.  At k = 3 (t = 5) both
  // stretches are exactly 4; at k = 2 (t = 3) both are infinite.
  Graph g(8);
  g.add_edge(7, 3);
  g.add_edge(0, 4);
  Graph h(8);
  for (VertexId v = 0; v + 1 < 8; ++v) {
    g.add_edge(v, v + 1);
    h.add_edge(v, v + 1);
  }
  for (const std::uint32_t k : {2u, 3u}) {
    const SpannerParams params{.k = k, .f = 0};
    const auto report =
        check_fault_set(g, h, params, FaultSet{FaultModel::vertex, {}});
    EXPECT_EQ(report.ok, k == 3) << "k=" << k;
    EXPECT_EQ(report.max_stretch,
              k == 3 ? 4.0 : std::numeric_limits<double>::infinity());
    EXPECT_EQ(report.worst.u, 7u) << "k=" << k;
    EXPECT_EQ(report.worst.v, 3u) << "k=" << k;
  }
}

// ------------------------------------------------- reference differential
//
// The library checks each fault set source by source.  The reference below
// is the per-edge loop it replaced: for every surviving G-edge in id order,
// one Dijkstra in G\F with budget w and one in H\F pruned at t * d_G, the
// witness replaced only on a strictly greater stretch.  Every entry point
// must reproduce its reports field for field.

void reference_check(const Graph& g, const Graph& h,
                     const SpannerParams& params, const FaultSet& faults,
                     StretchReport& report) {
  std::vector<std::uint8_t> vertices(g.n(), 0);
  std::vector<std::uint8_t> g_edges(g.m(), 0);
  std::vector<std::uint8_t> h_edges(h.m(), 0);
  for (const auto id : faults.ids) {
    if (faults.model == FaultModel::vertex) {
      vertices[id] = 1;
      continue;
    }
    g_edges[id] = 1;
    const auto& e = g.edge(id);
    if (const auto in_h = h.find_edge(e.u, e.v)) h_edges[*in_h] = 1;
  }
  const FaultView g_view{vertices, g_edges};
  const FaultView h_view{vertices, h_edges};
  DijkstraRunner dijkstra;
  ++report.fault_sets_checked;
  for (EdgeId id = 0; id < g.m(); ++id) {
    const auto& e = g.edge(id);
    if (!g_view.edge_alive(id) || !g_view.vertex_alive(e.u) ||
        !g_view.vertex_alive(e.v))
      continue;
    ++report.pairs_checked;
    const Weight d_g = dijkstra.distance(g, e.u, e.v, g_view, e.w);
    const Weight budget = static_cast<Weight>(params.stretch()) * d_g;
    const Weight d_h = dijkstra.distance(h, e.u, e.v, h_view, budget);
    const double stretch =
        d_h == kUnreachableWeight
            ? std::numeric_limits<double>::infinity()
            : (d_g == 0.0 ? 1.0 : static_cast<double>(d_h / d_g));
    if (stretch > report.max_stretch) {
      report.max_stretch = stretch;
      report.worst = StretchWitness{faults, e.u, e.v, d_g, d_h};
    }
    if (d_h == kUnreachableWeight ||
        d_h > budget + 1e-9 * std::max(1.0, budget))
      report.ok = false;
  }
}

/// The per-set fold of verify_fault_sets: set order, strictly greater wins.
StretchReport reference_fold(const Graph& g, const Graph& h,
                             const SpannerParams& params,
                             const std::vector<FaultSet>& sets) {
  StretchReport report;
  for (const auto& set : sets) {
    StretchReport p;
    reference_check(g, h, params, set, p);
    report.fault_sets_checked += p.fault_sets_checked;
    report.pairs_checked += p.pairs_checked;
    report.ok = report.ok && p.ok;
    if (p.max_stretch > report.max_stretch) {
      report.max_stretch = p.max_stretch;
      report.worst = p.worst;
    }
  }
  return report;
}

/// verify_exhaustive's enumeration (sizes 0..f, combinations in
/// lexicographic order) into one shared report.
StretchReport reference_exhaustive(const Graph& g, const Graph& h,
                                   const SpannerParams& params) {
  StretchReport report;
  const auto universe = static_cast<std::uint32_t>(
      params.model == FaultModel::vertex ? g.n() : g.m());
  for (std::uint32_t size = 0; size <= params.f && size <= universe; ++size) {
    std::vector<std::uint32_t> pick(size);
    for (std::uint32_t i = 0; i < size; ++i) pick[i] = i;
    while (true) {
      reference_check(g, h, params, FaultSet{params.model, pick}, report);
      std::uint32_t i = size;
      while (i > 0 && pick[i - 1] == universe - (size - (i - 1))) --i;
      if (i == 0) break;
      ++pick[i - 1];
      for (std::uint32_t j = i; j < size; ++j) pick[j] = pick[j - 1] + 1;
    }
  }
  return report;
}

/// verify_sampled's draws (the empty set, then trial i at size
/// f - (i mod (f+1)), skipping size 0 and short draws), folded.
StretchReport reference_sampled(const Graph& g, const Graph& h,
                                const SpannerParams& params,
                                std::uint32_t trials, Rng& rng) {
  std::vector<FaultSet> sets{FaultSet{params.model, {}}};
  std::uint64_t skipped = 0;
  for (std::uint32_t trial = 0; trial < trials; ++trial) {
    const std::uint32_t want =
        params.f == 0 ? 0 : params.f - (trial % (params.f + 1));
    if (want == 0) {
      ++skipped;
      continue;
    }
    FaultSet faults =
        generate_mixed_attack(g, h, params.model, want, trial, rng);
    if (faults.ids.size() < want) {
      ++skipped;
      continue;
    }
    sets.push_back(std::move(faults));
  }
  StretchReport report = reference_fold(g, h, params, sets);
  report.trials_skipped = skipped;
  return report;
}

void expect_same_report(const StretchReport& got, const StretchReport& want,
                        const std::string& ctx) {
  EXPECT_EQ(got.ok, want.ok) << ctx;
  EXPECT_EQ(got.max_stretch, want.max_stretch) << ctx;
  EXPECT_EQ(got.pairs_checked, want.pairs_checked) << ctx;
  EXPECT_EQ(got.fault_sets_checked, want.fault_sets_checked) << ctx;
  EXPECT_EQ(got.trials_skipped, want.trials_skipped) << ctx;
  EXPECT_EQ(got.worst.u, want.worst.u) << ctx;
  EXPECT_EQ(got.worst.v, want.worst.v) << ctx;
  EXPECT_EQ(got.worst.d_g, want.worst.d_g) << ctx;
  EXPECT_EQ(got.worst.d_h, want.worst.d_h) << ctx;
  EXPECT_EQ(got.worst.faults.model, want.worst.faults.model) << ctx;
  EXPECT_EQ(got.worst.faults.ids, want.worst.faults.ids) << ctx;
}

/// A copy of `g` with its edge ids shuffled and each edge's stored
/// orientation flipped at random, so the order in which sources are checked
/// is unrelated to edge-id order.  With `tied_weights` the copy carries
/// integer weights in [1, 4]: few distinct values, so equal distances and
/// equal stretches are common.
Graph shuffled(const Graph& g, bool tied_weights, Rng& rng) {
  std::vector<Edge> edges(g.edges().begin(), g.edges().end());
  for (std::size_t i = edges.size(); i > 1; --i)
    std::swap(edges[i - 1], edges[rng.next_below(i)]);
  Graph out(g.n(), tied_weights);
  for (auto& e : edges) {
    if (rng.next_below(2) == 1) std::swap(e.u, e.v);
    out.add_edge(e.u, e.v,
                 tied_weights ? static_cast<Weight>(1 + rng.next_below(4)) : 1.0);
  }
  return out;
}

/// `h` without every `drop`-th edge (drop == 0 keeps all of them).
Graph damaged(const Graph& h, std::uint32_t drop) {
  Graph out(h.n(), h.weighted());
  for (EdgeId id = 0; id < h.m(); ++id) {
    if (drop != 0 && id % drop == drop - 1) continue;
    const auto& e = h.edge(id);
    out.add_edge(e.u, e.v, e.w);
  }
  return out;
}

struct DiffInput {
  std::string name;
  Graph g;
  std::vector<Point> coords;
};

std::vector<DiffInput> differential_inputs(std::uint64_t seed) {
  std::vector<DiffInput> inputs;
  Rng rng(seed);
  inputs.push_back({"gnp", gnp(12, 0.4, rng), {}});
  DiffInput geo{"geometric", Graph{}, {}};
  geo.g = random_geometric(13, 0.4, rng, &geo.coords);
  inputs.push_back(std::move(geo));
  inputs.push_back({"grid", grid_graph(3, 4), grid_coords(3, 4)});
  inputs.push_back({"ba", barabasi_albert(12, 2, rng), {}});
  return inputs;
}

TEST(VerifierDifferential, MatchesPerEdgeReference) {
  for (const std::uint64_t seed : {11u}) {
    for (const auto& input : differential_inputs(seed)) {
      for (const bool weighted : {false, true}) {
        Rng shuffle_rng(seed * 977 + 3);
        const Graph g = shuffled(input.g, weighted, shuffle_rng);
        for (const FaultModel model : {FaultModel::vertex, FaultModel::edge}) {
          for (const std::uint32_t f : {0u, 1u, 2u}) {
            for (const std::uint32_t k : {2u, 3u}) {
              const SpannerParams params{.k = k, .f = f, .model = model};
              const Graph built = modified_greedy_spanner(g, params).spanner;
              for (const std::uint32_t drop : {0u, 3u, 7u}) {
                const Graph h = damaged(built, drop);
                const std::string ctx =
                    "seed=" + std::to_string(seed) + " graph=" + input.name +
                    " weighted=" + std::to_string(weighted) +
                    " model=" + to_string(model) + " f=" + std::to_string(f) +
                    " k=" + std::to_string(k) +
                    " drop=" + std::to_string(drop);

                expect_same_report(verify_exhaustive(g, h, params),
                                   reference_exhaustive(g, h, params),
                                   ctx + " exhaustive");

                Rng set_rng(seed * 31 + f);
                std::vector<FaultSet> sets{FaultSet{model, {}}};
                for (std::uint32_t trial = 0; f > 0 && trial < 6; ++trial)
                  sets.push_back(generate_mixed_attack(
                      g, h, model, 1 + trial % f, trial, set_rng));
                for (const auto& set : sets) {
                  StretchReport want;
                  reference_check(g, h, params, set, want);
                  expect_same_report(check_fault_set(g, h, params, set), want,
                                     ctx + " check_fault_set");
                }

                // The threaded entry points against references computed once.
                const StretchReport want_sets =
                    reference_fold(g, h, params, sets);
                std::vector<StretchReport> want_per_set(sets.size());
                for (std::size_t i = 0; i < sets.size(); ++i)
                  reference_check(g, h, params, sets[i], want_per_set[i]);
                const std::uint64_t sample_seed = seed + 100 * k + f;
                Rng ref_rng(sample_seed);
                const StretchReport want_sampled =
                    reference_sampled(g, h, params, 9, ref_rng);
                std::vector<ScenarioSpec> specs;
                for (const ScenarioKind kind : kAllScenarioKinds) {
                  if (kind == ScenarioKind::geo_ball && input.coords.empty())
                    continue;
                  ScenarioSpec spec;
                  spec.kind = kind;
                  spec.ball_radius = 0.3;
                  spec.restarts = 1;
                  spec.coords = input.coords;
                  specs.push_back(std::move(spec));
                }
                const std::uint64_t storm_seed = seed * 7 + k;
                std::vector<std::vector<FaultSet>> want_drawn(specs.size());
                std::vector<StretchReport> want_storm(specs.size());

                for (const std::uint32_t threads : {1u, 2u, 8u}) {
                  const std::string tctx =
                      ctx + " threads=" + std::to_string(threads);
                  ExecPolicy exec;
                  exec.threads = threads;
                  std::vector<StretchReport> per_set;
                  expect_same_report(
                      verify_fault_sets(g, h, params, sets, exec, &per_set),
                      want_sets, tctx + " fault_sets");
                  ASSERT_EQ(per_set.size(), sets.size()) << tctx;
                  for (std::size_t i = 0; i < sets.size(); ++i)
                    expect_same_report(per_set[i], want_per_set[i],
                                       tctx + " per_set " + std::to_string(i));

                  Rng rng(sample_seed);
                  expect_same_report(verify_sampled(g, h, params, 9, rng, exec),
                                     want_sampled, tctx + " sampled");

                  for (std::size_t i = 0; i < specs.size(); ++i) {
                    const std::string sctx =
                        tctx + " scenario=" + to_string(specs[i].kind);
                    Rng storm_rng(storm_seed);
                    std::vector<FaultSet> drawn;
                    const StretchReport got = verify_scenario(
                        g, h, params, specs[i], 4, storm_rng, exec, &drawn);
                    if (threads == 1) {
                      want_drawn[i] = drawn;
                      want_storm[i] = reference_fold(g, h, params, drawn);
                    }
                    ASSERT_EQ(drawn.size(), want_drawn[i].size()) << sctx;
                    for (std::size_t j = 0; j < drawn.size(); ++j)
                      EXPECT_EQ(drawn[j].ids, want_drawn[i][j].ids) << sctx;
                    expect_same_report(got, want_storm[i], sctx);
                  }
                }
              }
            }
          }
        }
      }
    }
  }
}

// ----------------------------------------------------------------- attack

TEST(Attack, GeneratesRequestedSize) {
  const Graph g = complete_graph(10);
  Rng rng(91);
  for (const auto strategy :
       {AttackStrategy::uniform, AttackStrategy::high_degree,
        AttackStrategy::neighborhood, AttackStrategy::detour_hitting}) {
    const auto faults =
        generate_attack(g, g, FaultModel::vertex, 3, strategy, rng);
    EXPECT_EQ(faults.ids.size(), 3u);
    EXPECT_EQ(faults.model, FaultModel::vertex);
    // Distinctness.
    auto sorted = faults.ids;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
    for (const auto id : faults.ids) EXPECT_LT(id, g.n());
  }
}

TEST(Attack, EdgeModelIdsAreInRange) {
  const Graph g = complete_graph(8);
  Rng rng(92);
  for (std::uint32_t trial = 0; trial < 12; ++trial) {
    const auto faults =
        generate_mixed_attack(g, g, FaultModel::edge, 4, trial, rng);
    EXPECT_LE(faults.ids.size(), 4u);
    for (const auto id : faults.ids) EXPECT_LT(id, g.m());
  }
}

TEST(Attack, HighDegreeTargetsHubs) {
  const Graph h = star_graph(12);
  Rng rng(93);
  const auto faults =
      generate_attack(h, h, FaultModel::vertex, 1, AttackStrategy::high_degree,
                      rng);
  ASSERT_EQ(faults.ids.size(), 1u);
  EXPECT_EQ(faults.ids[0], 0u);  // the center has degree 11
}

TEST(Attack, UniverseSmallerThanCountIsHandled) {
  const Graph g = path_graph(3);
  Rng rng(94);
  const auto faults =
      generate_attack(g, g, FaultModel::vertex, 10, AttackStrategy::uniform, rng);
  EXPECT_LE(faults.ids.size(), 3u);
}

}  // namespace
}  // namespace ftspan
