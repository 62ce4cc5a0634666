// Shared fixtures and helpers for the ftspan test suite.

#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/lbc.h"
#include "core/modified_greedy.h"
#include "core/options.h"
#include "fault/verifier.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace ftspan::testing {

/// A connected G(n,p) graph: retries seeds until connected (bounded).
inline Graph connected_gnp(std::size_t n, double p, std::uint64_t seed) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    Rng rng(seed + static_cast<std::uint64_t>(attempt) * 7919);
    Graph g = gnp(n, p, rng);
    std::size_t count = 0;
    // local connectivity check to avoid pulling subgraph.h everywhere
    std::vector<int> seen(n, 0);
    std::vector<VertexId> queue{0};
    seen[0] = 1;
    std::size_t reached = 1;
    for (std::size_t head = 0; head < queue.size(); ++head)
      for (const auto& arc : g.neighbors(queue[head]))
        if (!seen[arc.to]) {
          seen[arc.to] = 1;
          ++reached;
          queue.push_back(arc.to);
        }
    (void)count;
    if (reached == n) return g;
  }
  ADD_FAILURE() << "could not generate a connected G(" << n << "," << p << ")";
  return complete_graph(n);
}

/// Gtest-friendly wrapper: asserts that h is an f-FT (2k-1)-spanner of g by
/// exhaustive enumeration (use only on small instances).
inline void expect_ft_spanner_exhaustive(const Graph& g, const Graph& h,
                                         const SpannerParams& params,
                                         const std::string& context = {}) {
  const StretchReport report = verify_exhaustive(g, h, params);
  EXPECT_TRUE(report.ok) << context << " stretch violated: max_stretch="
                         << report.max_stretch << " at pair ("
                         << report.worst.u << "," << report.worst.v
                         << ") with |F|=" << report.worst.faults.ids.size();
}

/// Sampled-verification variant for medium instances.
inline void expect_ft_spanner_sampled(const Graph& g, const Graph& h,
                                      const SpannerParams& params,
                                      std::uint32_t trials, std::uint64_t seed,
                                      const std::string& context = {}) {
  Rng rng(seed);
  const StretchReport report = verify_sampled(g, h, params, trials, rng);
  EXPECT_TRUE(report.ok) << context << " stretch violated: max_stretch="
                         << report.max_stretch << " at pair ("
                         << report.worst.u << "," << report.worst.v << ")";
}

/// Test-side reference for the modified greedy: the same scan order as
/// modified_greedy_spanner, computed by this function's own copy of the
/// sort rather than by scan_order, and one plain LbcSolver::decide per edge.
/// Fills picked, certificates (when config.record_certificates),
/// oracle_calls and search_sweeps.
inline SpannerBuild reference_greedy(const Graph& g, const SpannerParams& params,
                                     const ModifiedGreedyConfig& config = {}) {
  std::vector<EdgeId> order(g.m());
  std::iota(order.begin(), order.end(), 0);
  switch (config.order) {
    case EdgeOrder::input:
      break;
    case EdgeOrder::by_weight:
      std::stable_sort(order.begin(), order.end(), [&](EdgeId a, EdgeId b) {
        return g.edge(a).w < g.edge(b).w;
      });
      break;
    case EdgeOrder::by_weight_desc:
      std::stable_sort(order.begin(), order.end(), [&](EdgeId a, EdgeId b) {
        return g.edge(a).w > g.edge(b).w;
      });
      break;
    case EdgeOrder::random: {
      Rng rng(config.shuffle_seed);
      std::shuffle(order.begin(), order.end(), rng);
      break;
    }
  }
  const std::uint32_t t =
      config.hop_budget != 0 ? config.hop_budget : params.stretch();
  SpannerBuild build;
  build.spanner = Graph(g.n(), g.weighted());
  LbcSolver lbc(params.model);
  for (const EdgeId id : order) {
    const auto& e = g.edge(id);
    LbcResult decision = lbc.decide(build.spanner, e.u, e.v, t, params.f);
    ++build.stats.oracle_calls;
    if (!decision.yes) continue;
    build.spanner.add_edge(e.u, e.v, e.w);
    build.picked.push_back(id);
    if (config.record_certificates)
      build.certificates.push_back(std::move(decision.cut));
  }
  build.stats.search_sweeps = lbc.total_sweeps();
  return build;
}

/// Runs modified_greedy_spanner and asserts it matches reference_greedy in
/// picks, oracle calls, sweep counts, and certificates.  `context` (which
/// should name the seed) prefixes every failure.  Returns the engine build.
inline SpannerBuild expect_matches_reference(const Graph& g,
                                             const SpannerParams& params,
                                             ModifiedGreedyConfig config,
                                             const std::string& context) {
  config.record_certificates = true;
  const SpannerBuild ref = reference_greedy(g, params, config);
  SpannerBuild build = modified_greedy_spanner(g, params, config);
  EXPECT_EQ(build.picked, ref.picked) << context;
  EXPECT_EQ(build.stats.oracle_calls, ref.stats.oracle_calls) << context;
  EXPECT_EQ(build.stats.search_sweeps, ref.stats.search_sweeps) << context;
  EXPECT_EQ(build.certificates.size(), ref.certificates.size()) << context;
  for (std::size_t i = 0;
       i < std::min(build.certificates.size(), ref.certificates.size()); ++i)
    EXPECT_EQ(build.certificates[i].ids, ref.certificates[i].ids)
        << context << " certificate=" << i;
  return build;
}

}  // namespace ftspan::testing
