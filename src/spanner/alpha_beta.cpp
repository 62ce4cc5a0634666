#include "spanner/alpha_beta.h"

#include <cmath>

#include "core/lbc.h"
#include "util/check.h"
#include "util/timer.h"

namespace ftspan {

SpannerBuild alpha_beta_spanner(const Graph& g, const SpannerParams& params,
                                const AlphaBetaConfig& config) {
  params.validate();
  FTSPAN_REQUIRE(config.alpha >= 0.0 && config.beta >= 0.0,
                 "(alpha, beta)-greedy requires alpha, beta >= 0");
  FTSPAN_REQUIRE(config.alpha + config.beta >= 1.0,
                 "(alpha, beta)-greedy requires alpha + beta >= 1");

  if (!g.weighted()) {
    // Unit weights collapse every per-edge budget to the same hop count
    // floor(alpha * 1 + beta), which is Algorithm 2 under a different t:
    // delegate to the modified-greedy engine via the hop override.
    ModifiedGreedyConfig engine = config.engine;
    engine.hop_budget =
        static_cast<std::uint32_t>(std::floor(config.alpha + config.beta));
    return modified_greedy_spanner(g, params, engine);
  }

  // Weighted scan: per-edge budget alpha * w(e) + beta, decided by
  // budget-pruned Dijkstra sweeps (LbcSolver::decide_weighted).  Sequential;
  // nondecreasing weight order is required for the certification argument
  // (the same role it plays in Theorem 10), so config.engine.order is
  // honored only between by_weight and input on already-sorted inputs.
  FTSPAN_REQUIRE(config.engine.exec.threads == 1,
                 "the (alpha, beta)-greedy builds on the calling thread "
                 "(config.engine.exec.threads must be 1)");
  const Timer timer;
  const std::vector<EdgeId> order = scan_order(g, EdgeOrder::by_weight);

  SpannerBuild build;
  build.spanner = Graph(g.n(), g.weighted());
  LbcSolver lbc(params.model);
  for (const auto id : order) {
    const auto& e = g.edge(id);
    const Weight budget = config.alpha * e.w + config.beta;
    ++build.stats.oracle_calls;
    LbcResult decision =
        lbc.decide_weighted(build.spanner, e.u, e.v, budget, params.f);
    if (!decision.yes) continue;
    build.spanner.add_edge(e.u, e.v, e.w);
    build.picked.push_back(id);
    if (config.engine.record_certificates)
      build.certificates.push_back(std::move(decision.cut));
  }
  lbc.write_stats(build.stats);
  build.stats.seconds = timer.seconds();
  return build;
}

}  // namespace ftspan
