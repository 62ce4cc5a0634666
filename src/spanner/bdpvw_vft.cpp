#include "spanner/bdpvw_vft.h"

#include <optional>
#include <utility>

#include "core/fault_search.h"
#include "core/lbc.h"
#include "core/modified_greedy.h"
#include "util/check.h"
#include "util/timer.h"

namespace ftspan {

SpannerBuild bdpvw_vft_spanner(const Graph& g, const SpannerParams& params,
                               const BdpvwConfig& config) {
  params.validate();
  FTSPAN_REQUIRE(params.model == FaultModel::vertex,
                 "BDPVW is a vertex-fault-tolerant construction "
                 "(params.model must be FaultModel::vertex)");
  const Timer timer;

  // Nondecreasing weight, ties by id — the exact_greedy_spanner order, so
  // the differential pin (identical picks) is exact.
  const std::vector<EdgeId> order = scan_order(g, EdgeOrder::by_weight);

  SpannerBuild build;
  build.spanner = Graph(g.n(), g.weighted());
  FaultSetSearch search(params.model);
  LbcSolver lbc(params.model);

  const std::uint32_t t = params.stretch();
  // A hop-bounded cut certifies nothing about the weighted threshold
  // t * w(e), so the filter applies to unweighted inputs only.
  const bool filtered = config.lbc_filter && !g.weighted();

  const auto exact_witness = [&](EdgeId id) {
    const auto& e = g.edge(id);
    const PathBound bound = g.weighted()
                                ? PathBound::weight(static_cast<Weight>(t) * e.w)
                                : PathBound::hops(t);
    ++build.stats.exact_searches;
    return search.find_blocking_set(build.spanner, e.u, e.v, bound, params.f);
  };

  // Filter-first resolution of one decision: NO rejects outright (Theorem 4
  // leaves no cut of size <= f), a small YES-cut is itself the witness, and
  // only the ambiguous remainder pays for a branch-and-bound search.
  const auto resolve = [&](LbcResult pre, EdgeId id) -> std::optional<FaultSet> {
    if (!pre.yes) return std::nullopt;
    if (pre.cut.ids.size() <= params.f) return std::move(pre.cut);
    return exact_witness(id);
  };

  for (const auto id : order) {
    const auto& e = g.edge(id);
    // Filtered, the modified greedy's LBC decision comes first, and resolve
    // settles what its answer leaves open.
    std::optional<FaultSet> witness =
        filtered
            ? resolve(lbc.decide(build.spanner, e.u, e.v, t, params.f), id)
            : exact_witness(id);
    ++build.stats.oracle_calls;
    if (!witness.has_value()) continue;
    build.spanner.add_edge(e.u, e.v, e.w);
    build.picked.push_back(id);
    if (config.record_certificates)
      build.certificates.push_back(std::move(*witness));
  }

  lbc.write_stats(build.stats);
  build.stats.exact_search_nodes = search.nodes_visited();
  build.stats.seconds = timer.seconds();
  return build;
}

}  // namespace ftspan
