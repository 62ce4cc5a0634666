#include "spanner/bdpvw_vft.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <utility>

#include "core/fault_search.h"
#include "core/lbc.h"
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
  std::vector<EdgeId> order(g.m());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](EdgeId a, EdgeId b) {
    return g.edge(a).w < g.edge(b).w;
  });

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

  const auto commit = [&](std::optional<FaultSet> witness, EdgeId id) {
    ++build.stats.oracle_calls;
    if (!witness.has_value()) return false;
    const auto& e = g.edge(id);
    build.spanner.add_edge(e.u, e.v, e.w);
    build.picked.push_back(id);
    if (config.record_certificates)
      build.certificates.push_back(std::move(*witness));
    return true;
  };

  if (!filtered) {
    for (const auto id : order) commit(exact_witness(id), id);
  } else {
    // The modified greedy's terminal-batched scan with the hybrid
    // resolution spliced in where the LBC answer used to be final.  f == 0
    // decisions never reach the search (an empty YES-cut is the witness), so
    // the scan's alpha-0 graft path stays exact.
    lbc_scan(g, order, build.spanner, lbc, t, params.f,
             [&](LbcResult pre, EdgeId id) {
               return commit(resolve(std::move(pre), id), id);
             });
  }

  lbc.write_stats(build.stats);
  build.stats.exact_search_nodes = search.nodes_visited();
  build.stats.seconds = timer.seconds();
  return build;
}

}  // namespace ftspan
