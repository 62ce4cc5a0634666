#include "core/greedy_exact.h"

#include <utility>

#include "core/fault_search.h"
#include "core/modified_greedy.h"
#include "util/timer.h"

namespace ftspan {

SpannerBuild exact_greedy_spanner(const Graph& g, const SpannerParams& params,
                                  bool record_certificates) {
  params.validate();
  const Timer timer;

  // Nondecreasing weight, ties by id for determinism.
  const std::vector<EdgeId> order = scan_order(g, EdgeOrder::by_weight);

  SpannerBuild build;
  build.spanner = Graph(g.n(), g.weighted());
  FaultSetSearch search(params.model);

  const std::uint32_t t = params.stretch();
  for (const auto id : order) {
    const auto& e = g.edge(id);
    const PathBound bound = g.weighted()
                                ? PathBound::weight(static_cast<Weight>(t) * e.w)
                                : PathBound::hops(t);
    ++build.stats.oracle_calls;
    auto witness =
        search.find_blocking_set(build.spanner, e.u, e.v, bound, params.f);
    if (witness.has_value()) {
      build.spanner.add_edge(e.u, e.v, e.w);
      build.picked.push_back(id);
      if (record_certificates) build.certificates.push_back(std::move(*witness));
    }
  }
  build.stats.search_sweeps = search.nodes_visited();
  build.stats.exact_searches = build.stats.oracle_calls;
  build.stats.exact_search_nodes = search.nodes_visited();
  build.stats.seconds = timer.seconds();
  return build;
}

}  // namespace ftspan
