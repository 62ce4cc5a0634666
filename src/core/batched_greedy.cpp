#include "core/batched_greedy.h"

#include <algorithm>

#include "core/lbc.h"
#include "core/modified_greedy.h"
#include "util/check.h"
#include "util/timer.h"

namespace ftspan {

SpannerBuild batched_greedy_spanner(const Graph& g, const SpannerParams& params,
                                    std::size_t batch_size) {
  params.validate();
  FTSPAN_REQUIRE(batch_size >= 1, "batch size must be at least 1");
  const Timer timer;

  const std::vector<EdgeId> order = scan_order(g, EdgeOrder::by_weight);

  SpannerBuild build;
  build.spanner = Graph(g.n(), g.weighted());
  LbcSolver lbc(params.model);
  const std::uint32_t t = params.stretch();

  std::vector<EdgeId> accepted;
  for (std::size_t begin = 0; begin < order.size(); begin += batch_size) {
    const std::size_t end = std::min(begin + batch_size, order.size());
    accepted.clear();
    // Decision phase: every edge of the batch is tested against the same
    // snapshot of H (this loop is what a parallel implementation fans out).
    for (std::size_t i = begin; i < end; ++i) {
      const auto& e = g.edge(order[i]);
      ++build.stats.oracle_calls;
      if (lbc.decide(build.spanner, e.u, e.v, t, params.f).yes)
        accepted.push_back(order[i]);
    }
    // Commit phase.
    for (const auto id : accepted) {
      const auto& e = g.edge(id);
      build.spanner.add_edge(e.u, e.v, e.w);
      build.picked.push_back(id);
    }
  }
  build.stats.search_sweeps = lbc.total_sweeps();
  build.stats.seconds = timer.seconds();
  return build;
}

}  // namespace ftspan
