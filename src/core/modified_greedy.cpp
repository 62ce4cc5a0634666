#include "core/modified_greedy.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "core/lbc.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/timer.h"

namespace ftspan {

std::vector<EdgeId> scan_order(const Graph& g, EdgeOrder order,
                               std::uint64_t shuffle_seed) {
  std::vector<EdgeId> ids(g.m());
  std::iota(ids.begin(), ids.end(), 0);
  switch (order) {
    case EdgeOrder::input:
      break;
    case EdgeOrder::by_weight:
      std::stable_sort(ids.begin(), ids.end(), [&](EdgeId a, EdgeId b) {
        return g.edge(a).w < g.edge(b).w;
      });
      break;
    case EdgeOrder::by_weight_desc:
      std::stable_sort(ids.begin(), ids.end(), [&](EdgeId a, EdgeId b) {
        return g.edge(a).w > g.edge(b).w;
      });
      break;
    case EdgeOrder::random: {
      Rng rng(shuffle_seed);
      std::shuffle(ids.begin(), ids.end(), rng);
      break;
    }
  }
  return ids;
}

SpannerBuild modified_greedy_spanner(const Graph& g, const SpannerParams& params,
                                     const ModifiedGreedyConfig& config) {
  params.validate();
  FTSPAN_REQUIRE(config.exec.threads == 1,
                 "the modified greedy builds on the calling thread "
                 "(config.exec.threads must be 1)");
  const Timer timer;
  const auto order = scan_order(g, config.order, config.shuffle_seed);

  SpannerBuild build;
  build.spanner = Graph(g.n(), g.weighted());
  LbcSolver lbc(params.model);
  const std::uint32_t t =
      config.hop_budget != 0 ? config.hop_budget : params.stretch();
  // Algorithm 2 runs on the *unweighted* view of H — even for weighted G,
  // the weights only determined the scan order (Theorem 10's key idea).
  for (const auto id : order) {
    const auto& e = g.edge(id);
    ++build.stats.oracle_calls;
    LbcResult decision = lbc.decide(build.spanner, e.u, e.v, t, params.f);
    if (!decision.yes) continue;
    build.spanner.add_edge(e.u, e.v, e.w);
    build.picked.push_back(id);
    if (config.record_certificates)
      build.certificates.push_back(std::move(decision.cut));
  }
  lbc.write_stats(build.stats);
  build.stats.seconds = timer.seconds();
  return build;
}

}  // namespace ftspan
