#include "spanner/add93_greedy.h"

#include <cmath>

#include "core/modified_greedy.h"
#include "graph/search.h"
#include "util/check.h"

namespace ftspan {

Graph add93_greedy_spanner(const Graph& g, std::uint32_t k,
                           std::vector<EdgeId>* picked) {
  FTSPAN_REQUIRE(k >= 1, "spanner requires k >= 1");
  const std::vector<EdgeId> order = scan_order(g, EdgeOrder::by_weight);

  if (picked != nullptr) picked->clear();
  Graph h(g.n(), g.weighted());
  const auto record = [&](EdgeId id) {
    if (picked != nullptr) picked->push_back(id);
  };
  const auto t = static_cast<Weight>(2 * k - 1);
  if (g.weighted()) {
    DijkstraRunner dijkstra(g.n());
    for (const auto id : order) {
      const auto& e = g.edge(id);
      if (dijkstra.distance(h, e.u, e.v, {}, t * e.w) == kUnreachableWeight) {
        h.add_edge(e.u, e.v, e.w);
        record(id);
      }
    }
  } else {
    BfsRunner bfs(g.n());
    for (const auto id : order) {
      const auto& e = g.edge(id);
      if (bfs.hop_distance(h, e.u, e.v, {}, 2 * k - 1) == kUnreachableHops) {
        h.add_edge(e.u, e.v, e.w);
        record(id);
      }
    }
  }
  return h;
}

double add93_size_bound(std::size_t n, std::uint32_t k) noexcept {
  const double nn = static_cast<double>(n);
  return std::pow(nn, 1.0 + 1.0 / k) + nn;
}

}  // namespace ftspan
