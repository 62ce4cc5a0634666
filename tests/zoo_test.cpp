// The spanner zoo under one roof: golden picked-set pins for the two
// related-paper constructions (BDPVW optimal VFT, Popova-Tzalik
// (alpha,beta)-greedy), their differential equivalences against the engines
// they reuse, and the registry dispatch contract (metadata-honest builds,
// loud unknown-name / wrong-model failures, degenerate inputs).
//
// The golden arrays were recorded by running the seeded configs below once
// and freezing build.picked; any change in sort order, LBC cut
// accumulation, exact-search tie-breaking, or the hybrid accept/reject
// composition shows up as a diff.  The bdpvw goldens double as
// exact-greedy goldens: the hybrid is pick-equivalent by construction
// (also asserted directly here), so one array pins both.

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "core/greedy_exact.h"
#include "core/modified_greedy.h"
#include "fault/verifier.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "spanner/alpha_beta.h"
#include "spanner/bdpvw_vft.h"
#include "spanner/registry.h"
#include "test_util.h"
#include "util/rng.h"

namespace ftspan {
namespace {

/// The weighted workload shared by every weighted golden below: uniform
/// weights in [1, 4], so beta * hops <= beta * dist and the (alpha, beta)
/// guarantee implies stretch <= alpha + beta.
Graph golden_weighted_graph() {
  Rng rng(7003);
  Graph base = gnp(36, 0.25, rng);
  return with_uniform_weights(base, 1.0, 4.0, rng);
}

// kBdpvwVertexK2F2 -> 181 picked
static const std::vector<EdgeId> kBdpvwVertexK2F2 = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63, 64, 65, 68, 69, 70, 71, 72, 73, 75, 76, 77, 78, 79, 80, 81, 83, 84, 85, 86, 87, 88, 89, 90, 92, 93, 96, 100, 101, 102, 103, 104, 105, 106, 107, 108, 109, 110, 111, 112, 114, 115, 117, 118, 120, 121, 123, 125, 129, 130, 133, 135, 136, 139, 140, 141, 142, 144, 145, 147, 149, 151, 154, 159, 162, 164, 165, 166, 167, 168, 169, 171, 172, 176, 178, 179, 183, 184, 185, 186, 189, 190, 191, 192, 193, 194, 195, 196, 197, 202, 203, 205, 207, 211, 214, 215, 216, 218, 219, 222, 227, 233, 235, 241, 242, 244, 246, 254, 255, 258, 259, 263, 267, 271, 273, 278, 289, 290};

// weighted graph: n=36 m=155
// kBdpvwWeightedVertexK2F1 -> 67 picked
static const std::vector<EdgeId> kBdpvwWeightedVertexK2F1 = {52, 60, 68, 66, 27, 58, 134, 114, 88, 56, 151, 75, 77, 76, 36, 153, 101, 62, 13, 7, 85, 57, 11, 111, 143, 118, 94, 102, 4, 65, 17, 106, 136, 116, 131, 0, 8, 113, 103, 42, 70, 50, 115, 100, 67, 95, 14, 80, 24, 135, 108, 120, 138, 96, 87, 47, 6, 132, 31, 54, 81, 34, 126, 127, 41, 84, 110};

// kAlphaBetaWeightedVertexF1 -> 81 picked
static const std::vector<EdgeId> kAlphaBetaWeightedVertexF1 = {52, 60, 68, 66, 27, 58, 134, 114, 88, 56, 151, 75, 77, 76, 36, 153, 101, 62, 13, 7, 85, 57, 11, 111, 143, 118, 94, 102, 4, 65, 17, 106, 123, 136, 116, 131, 0, 8, 113, 103, 42, 70, 50, 140, 115, 100, 67, 95, 14, 80, 24, 135, 108, 120, 138, 96, 33, 87, 47, 93, 145, 64, 6, 9, 132, 31, 54, 25, 79, 34, 126, 127, 142, 43, 3, 29, 73, 149, 84, 110, 21};

// kAlphaBetaWeightedEdgeF1 -> 81 picked
static const std::vector<EdgeId> kAlphaBetaWeightedEdgeF1 = {52, 60, 68, 66, 27, 58, 134, 114, 88, 56, 151, 75, 77, 76, 36, 153, 101, 62, 13, 7, 85, 57, 11, 111, 143, 118, 94, 102, 4, 65, 17, 106, 123, 136, 116, 131, 0, 8, 113, 103, 42, 70, 50, 140, 115, 100, 67, 95, 14, 80, 24, 135, 108, 120, 138, 96, 33, 87, 47, 93, 145, 64, 6, 9, 132, 31, 54, 25, 79, 34, 126, 127, 142, 43, 3, 29, 73, 149, 84, 110, 21};

// ---------------------------------------------------------------- bdpvw

// Same seeded graph as golden_greedy_test.cpp, so the two golden files pin
// the modified-vs-optimal size gap on identical input (181 edges there too,
// but a different set: the exact predicate rejects edges the LBC
// over-approximation keeps).
TEST(BdpvwVft, GoldenVertexK2F2AcrossKnobs) {
  Rng rng(7001);
  const Graph g = gnp(48, 0.25, rng);
  const SpannerParams params{.k = 2, .f = 2, .model = FaultModel::vertex};
  for (const bool filter : {true, false}) {
    BdpvwConfig config;
    config.lbc_filter = filter;
    const auto build = bdpvw_vft_spanner(g, params, config);
    EXPECT_EQ(build.picked, kBdpvwVertexK2F2) << "filter=" << filter;
    if (!filter) {
      // Unfiltered = pure exact scan: every decision is a search.
      EXPECT_EQ(build.stats.exact_searches, build.stats.oracle_calls);
    } else {
      // The LBC prefilter must settle most decisions without a search.
      EXPECT_LT(build.stats.exact_searches, build.stats.oracle_calls / 2);
    }
  }
  const auto build = bdpvw_vft_spanner(g, params);
  Rng verify_rng(99);
  const auto report =
      verify_sampled(g, build.spanner, params, /*trials=*/64, verify_rng);
  EXPECT_TRUE(report.ok) << "max_stretch " << report.max_stretch;
}

TEST(BdpvwVft, MatchesExactGreedyUnweighted) {
  const Graph g = testing::connected_gnp(40, 0.25, 7302);
  for (const std::uint32_t f : {0u, 1u, 2u}) {
    const SpannerParams params{.k = 2, .f = f, .model = FaultModel::vertex};
    const auto exact = exact_greedy_spanner(g, params);
    const auto hybrid = bdpvw_vft_spanner(g, params);
    EXPECT_EQ(hybrid.picked, exact.picked) << "f=" << f;
    EXPECT_LE(hybrid.stats.exact_searches, exact.stats.exact_searches)
        << "f=" << f;
    if (f == 0) {
      // LBC(t, 0) is the exact predicate: the filter decides everything.
      EXPECT_EQ(hybrid.stats.exact_searches, 0u);
    }
  }
}

TEST(BdpvwVft, MatchesExactGreedyWeightedGolden) {
  const Graph g = golden_weighted_graph();
  const SpannerParams params{.k = 2, .f = 1, .model = FaultModel::vertex};
  const auto hybrid = bdpvw_vft_spanner(g, params);
  EXPECT_EQ(hybrid.picked, kBdpvwWeightedVertexK2F1);
  EXPECT_EQ(hybrid.picked, exact_greedy_spanner(g, params).picked);
  // Weighted inputs disable the hop-filter: pure exact path.
  EXPECT_EQ(hybrid.stats.exact_searches, hybrid.stats.oracle_calls);
  Rng verify_rng(99);
  const auto report =
      verify_sampled(g, hybrid.spanner, params, /*trials=*/64, verify_rng);
  EXPECT_TRUE(report.ok) << "max_stretch " << report.max_stretch;
}

TEST(BdpvwVft, RejectsEdgeModel) {
  Rng rng(11);
  const Graph g = gnp(12, 0.4, rng);
  EXPECT_THROW(
      bdpvw_vft_spanner(g, {.k = 2, .f = 1, .model = FaultModel::edge}),
      std::invalid_argument);
}

TEST(BdpvwVft, CertificatesAreWithinBudget) {
  const Graph g = testing::connected_gnp(28, 0.3, 7404);
  const SpannerParams params{.k = 2, .f = 2, .model = FaultModel::vertex};
  BdpvwConfig config;
  config.record_certificates = true;
  const auto build = bdpvw_vft_spanner(g, params, config);
  ASSERT_EQ(build.certificates.size(), build.picked.size());
  for (const auto& cert : build.certificates)
    EXPECT_LE(cert.ids.size(), params.f);
}

// ----------------------------------------------------------- alpha_beta

TEST(AlphaBeta, CoincidesWithModifiedWhenBudgetMatches) {
  // alpha + beta = 2k - 1 = 3 on an unweighted graph is exactly the
  // paper's LBC(2k-1, f) test, whatever the alpha/beta split.
  const Graph g = testing::connected_gnp(40, 0.25, 7302);
  for (const FaultModel model : {FaultModel::vertex, FaultModel::edge}) {
    const SpannerParams params{.k = 2, .f = 2, .model = model};
    const auto modified = modified_greedy_spanner(g, params);
    for (const auto& [alpha, beta] :
         std::vector<std::pair<double, double>>{{3.0, 0.0}, {2.0, 1.0}}) {
      AlphaBetaConfig config;
      config.alpha = alpha;
      config.beta = beta;
      const auto build = alpha_beta_spanner(g, params, config);
      EXPECT_EQ(build.picked, modified.picked)
          << to_string(model) << " alpha=" << alpha << " beta=" << beta;
    }
  }
}

TEST(AlphaBeta, GoldenWeightedBothModels) {
  const Graph g = golden_weighted_graph();
  AlphaBetaConfig config;
  config.alpha = 2.0;
  config.beta = 1.0;
  for (const FaultModel model : {FaultModel::vertex, FaultModel::edge}) {
    const SpannerParams params{.k = 2, .f = 1, .model = model};
    const auto build = alpha_beta_spanner(g, params, config);
    EXPECT_EQ(build.picked, model == FaultModel::vertex
                                ? kAlphaBetaWeightedVertexF1
                                : kAlphaBetaWeightedEdgeF1);
    // Weights are >= 1, so alpha*d + beta <= (alpha+beta)*d = (2k-1)*d:
    // the standard verifier bound applies.
    Rng verify_rng(99);
    const auto report =
        verify_sampled(g, build.spanner, params, /*trials=*/64, verify_rng);
    EXPECT_TRUE(report.ok)
        << to_string(model) << " max_stretch " << report.max_stretch;
  }
}

TEST(AlphaBeta, ValidatesBudget) {
  Rng rng(11);
  const Graph g = gnp(12, 0.4, rng);
  const SpannerParams params{.k = 2, .f = 1, .model = FaultModel::vertex};
  for (const auto& [alpha, beta] : std::vector<std::pair<double, double>>{
           {-1.0, 2.0}, {2.0, -0.5}, {0.5, 0.25}}) {
    AlphaBetaConfig config;
    config.alpha = alpha;
    config.beta = beta;
    EXPECT_THROW(alpha_beta_spanner(g, params, config),
                 std::invalid_argument)
        << "alpha=" << alpha << " beta=" << beta;
  }
}

// ------------------------------------------------------------- registry

TEST(Registry, MetadataAndLookup) {
  EXPECT_GE(spanner_algos().size(), 7u);
  for (const auto& info : spanner_algos()) {
    EXPECT_NE(find_spanner_algo(info.name), nullptr);
    EXPECT_TRUE(info.vertex_model || info.edge_model) << info.name;
    EXPECT_FALSE(info.paper.empty()) << info.name;
    EXPECT_FALSE(info.guarantee.empty()) << info.name;
  }
  EXPECT_EQ(find_spanner_algo("nope"), nullptr);
}

TEST(Registry, UnknownNameAndWrongModelFailLoudly) {
  Rng rng(11);
  const Graph g = gnp(12, 0.4, rng);
  try {
    (void)build_spanner("nope", g, {.k = 2, .f = 1});
    FAIL() << "unknown algo must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("registered:"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(build_spanner("bdpvw", g,
                             {.k = 2, .f = 1, .model = FaultModel::edge}),
               std::invalid_argument);
  EXPECT_THROW(build_spanner("dk11", g,
                             {.k = 2, .f = 1, .model = FaultModel::edge}),
               std::invalid_argument);
}

// Every registered construction, on every model it claims, through the
// one dispatch entry point: f = 0, k = 1, and a disconnected input are
// exactly the degenerate corners a zoo caller will eventually hit.
TEST(Registry, EveryAlgoHandlesDegenerateInputs) {
  const Graph conn = testing::connected_gnp(20, 0.35, 4402);
  Rng rng(4401);
  const Graph a = gnp(14, 0.4, rng);
  const Graph b = gnp(10, 0.4, rng);
  std::vector<Edge> edges;
  for (EdgeId i = 0; i < a.m(); ++i) edges.push_back(a.edge(i));
  for (EdgeId i = 0; i < b.m(); ++i) {
    const auto& e = b.edge(i);
    edges.push_back({e.u + 14, e.v + 14, e.w});
  }
  const Graph disc = Graph::from_edges(24, edges, false);

  for (const auto& info : spanner_algos()) {
    for (const FaultModel model : {FaultModel::vertex, FaultModel::edge}) {
      const bool supported =
          model == FaultModel::vertex ? info.vertex_model : info.edge_model;
      if (!supported) continue;
      for (const auto& [k, f] :
           std::vector<std::pair<std::uint32_t, std::uint32_t>>{
               {1, 0}, {2, 0}, {2, 1}}) {
        if (info.name == "dk11" && f == 0) {
          // DK11's replacement-sampling radius is undefined at f = 0; the
          // registry forwards the construction's own loud precondition.
          EXPECT_THROW(build_spanner(info.name, conn,
                                     {.k = k, .f = f, .model = model}),
                       std::invalid_argument);
          continue;
        }
        for (const Graph* g : {&conn, &disc}) {
          SpannerAlgoOptions options;
          options.seed = 5;
          const SpannerParams params{.k = k, .f = f, .model = model};
          const auto build = build_spanner(info.name, *g, params, options);
          EXPECT_EQ(build.spanner.n(), g->n())
              << info.name << " k=" << k << " f=" << f;
          EXPECT_LE(build.spanner.m(), g->m())
              << info.name << " k=" << k << " f=" << f;
          EXPECT_EQ(build.picked.size(), build.spanner.m())
              << info.name << " k=" << k << " f=" << f;
          if (k == 1) {
            // A 1-spanner under any supported model keeps every edge.
            EXPECT_EQ(build.spanner.m(), g->m()) << info.name;
          }
        }
      }
    }
  }
}

// The FT constructions must actually verify under their claimed model when
// built through the dispatch; the zoo bench (E13) relies on this.
TEST(Registry, FaultTolerantAlgosVerifyThroughDispatch) {
  const Graph g = testing::connected_gnp(30, 0.35, 9105);
  for (const auto& info : spanner_algos()) {
    if (!info.fault_tolerant || info.randomized) continue;
    for (const FaultModel model : {FaultModel::vertex, FaultModel::edge}) {
      const bool supported =
          model == FaultModel::vertex ? info.vertex_model : info.edge_model;
      if (!supported) continue;
      const SpannerParams params{.k = 2, .f = 1, .model = model};
      SpannerAlgoOptions options;
      options.seed = 5;
      const auto build = build_spanner(info.name, g, params, options);
      Rng verify_rng(99);
      const auto report =
          verify_sampled(g, build.spanner, params, /*trials=*/64, verify_rng);
      EXPECT_TRUE(report.ok) << info.name << " " << to_string(model)
                             << " max_stretch " << report.max_stretch;
    }
  }
}

TEST(Registry, DispatchMatchesDirectCalls) {
  const Graph g = testing::connected_gnp(30, 0.35, 9105);
  const SpannerParams params{.k = 2, .f = 1, .model = FaultModel::vertex};
  SpannerAlgoOptions options;
  EXPECT_EQ(build_spanner("modified", g, params, options).picked,
            modified_greedy_spanner(g, params).picked);
  EXPECT_EQ(build_spanner("bdpvw", g, params, options).picked,
            bdpvw_vft_spanner(g, params).picked);
  options.alpha = 2.0;
  options.beta = 1.0;
  AlphaBetaConfig config;
  config.alpha = 2.0;
  config.beta = 1.0;
  EXPECT_EQ(build_spanner("alpha_beta", g, params, options).picked,
            alpha_beta_spanner(g, params, config).picked);
  // With alpha = beta = 0 the registry derives alpha = 2k - 1: the
  // default-budget dispatch coincides with the modified greedy.
  SpannerAlgoOptions defaults;
  EXPECT_EQ(build_spanner("alpha_beta", g, params, defaults).picked,
            modified_greedy_spanner(g, params).picked);
}

TEST(Registry, NamesStringListsEveryAlgo) {
  const std::string names = spanner_algo_names();
  for (const auto& info : spanner_algos())
    EXPECT_NE(names.find(std::string(info.name)), std::string::npos)
        << names;
}

}  // namespace
}  // namespace ftspan
