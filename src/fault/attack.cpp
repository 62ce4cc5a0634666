#include "fault/attack.h"

#include <algorithm>
#include <numeric>

#include "graph/fault_mask.h"
#include "graph/search.h"
#include "util/check.h"

namespace ftspan {

namespace {

/// Draws `count` distinct elements uniformly from [0, universe).
std::vector<std::uint32_t> sample_distinct(std::uint32_t universe,
                                           std::uint32_t count, Rng& rng) {
  count = std::min(count, universe);
  std::vector<std::uint32_t> out;
  out.reserve(count);
  ScratchMask used(universe);
  while (out.size() < count) {
    const auto id = static_cast<std::uint32_t>(rng.next_below(universe));
    if (!used.test(id)) {
      used.set(id);
      out.push_back(id);
    }
  }
  return out;
}

/// Vertices of H sorted by decreasing degree; ties broken randomly.
std::vector<VertexId> degree_ranking(const Graph& h, Rng& rng) {
  std::vector<VertexId> order(h.n());
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng);
  std::stable_sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    return h.degree(a) > h.degree(b);
  });
  return order;
}

FaultSet attack_uniform(const Graph& g, FaultModel model, std::uint32_t count,
                        Rng& rng) {
  const auto universe =
      static_cast<std::uint32_t>(model == FaultModel::vertex ? g.n() : g.m());
  return FaultSet{model, sample_distinct(universe, count, rng)};
}

FaultSet attack_high_degree(const Graph& g, const Graph& h, FaultModel model,
                            std::uint32_t count, Rng& rng) {
  const auto ranking = degree_ranking(h, rng);
  FaultSet out{model, {}};
  if (model == FaultModel::vertex) {
    for (std::size_t i = 0; i < ranking.size() && out.ids.size() < count; ++i)
      out.ids.push_back(ranking[i]);
    return out;
  }
  // Edge model: g-edges incident to the hubs, lexicographic by hub rank.
  ScratchMask used(static_cast<std::uint32_t>(g.m()));
  for (const auto hub : ranking) {
    for (const auto& arc : g.neighbors(hub)) {
      if (out.ids.size() >= count) return out;
      if (!used.test(arc.edge)) {
        used.set(arc.edge);
        out.ids.push_back(arc.edge);
      }
    }
    if (out.ids.size() >= count) break;
  }
  return out;
}

FaultSet attack_neighborhood(const Graph& g, const Graph& h, FaultModel model,
                             std::uint32_t count, Rng& rng) {
  if (g.m() == 0) return attack_uniform(g, model, count, rng);
  const auto pivot_id = static_cast<EdgeId>(rng.next_below(g.m()));
  const auto& pivot = g.edge(pivot_id);
  FaultSet out{model, {}};
  if (model == FaultModel::vertex) {
    ScratchMask used(static_cast<std::uint32_t>(g.n()));
    used.set(pivot.u);  // never fault the pair itself; the verifier would
    used.set(pivot.v);  // skip it and the trial would be wasted
    auto add_neighbors = [&](VertexId center) {
      for (const auto& arc : h.neighbors(center)) {
        if (out.ids.size() >= count) return;
        if (!used.test(arc.to)) {
          used.set(arc.to);
          out.ids.push_back(arc.to);
        }
      }
    };
    add_neighbors(pivot.u);
    add_neighbors(pivot.v);
    // Pad with uniform vertices if the neighborhoods were too small.
    while (out.ids.size() < count && used.touched().size() < g.n()) {
      const auto id = static_cast<std::uint32_t>(rng.next_below(g.n()));
      if (!used.test(id)) {
        used.set(id);
        out.ids.push_back(id);
      }
    }
    return out;
  }
  // Edge model: g-edges incident to the pivot's endpoints, except the pivot.
  ScratchMask used(static_cast<std::uint32_t>(g.m()));
  used.set(pivot_id);
  for (const VertexId center : {pivot.u, pivot.v}) {
    for (const auto& arc : g.neighbors(center)) {
      if (out.ids.size() >= count) return out;
      if (!used.test(arc.edge)) {
        used.set(arc.edge);
        out.ids.push_back(arc.edge);
      }
    }
  }
  while (out.ids.size() < count && used.touched().size() < g.m()) {
    const auto id = static_cast<std::uint32_t>(rng.next_below(g.m()));
    if (!used.test(id)) {
      used.set(id);
      out.ids.push_back(id);
    }
  }
  return out;
}

FaultSet attack_detour_hitting(const Graph& g, const Graph& h, FaultModel model,
                               std::uint32_t count, Rng& rng) {
  if (g.m() == 0) return attack_uniform(g, model, count, rng);
  const auto& pivot = g.edge(static_cast<EdgeId>(rng.next_below(g.m())));
  return detour_hitting_at(g, h, model, count, pivot.u, pivot.v, rng);
}

}  // namespace

FaultSet detour_hitting_at(const Graph& g, const Graph& h, FaultModel model,
                           std::uint32_t count, VertexId pu, VertexId pv,
                           Rng& rng) {
  FTSPAN_REQUIRE(h.n() == g.n(), "spanner must share G's vertex set");
  FTSPAN_REQUIRE(pu < g.n() && pv < g.n(), "detour pair out of range");
  // Repeatedly kill the current shortest u-v detour in H (Algorithm 2's
  // path-hitting move, aimed at the verifier's hardest pair).  The search
  // runs on g with the non-spanner edges masked out — the identical edge set
  // as searching h, but the arc path now carries g edge ids directly, so the
  // per-hop loop never resolves an edge by endpoints.  Building the mask is
  // one cold pass over g's edge list, amortized against the BFS sweeps below.
  BfsRunner bfs;
  ScratchMask vmask(g.n());
  ScratchMask emask(g.m());  // masked = not in H, or already killed below
  for (EdgeId id = 0; id < g.m(); ++id) {
    const auto& e = g.edge(id);
    if (!h.has_edge(e.u, e.v)) emask.set(id);
  }
  FaultSet out{model, {}};
  std::vector<PathStep> path;
  while (out.ids.size() < count) {
    const FaultView view = model == FaultModel::vertex
                               ? FaultView{vmask.bytes(), emask.bytes()}
                               : FaultView{{}, emask.bytes()};
    if (!bfs.shortest_path_arcs(g, pu, pv, path, view)) break;
    bool progressed = false;
    if (model == FaultModel::vertex) {
      for (std::size_t i = 1; i + 1 < path.size() && out.ids.size() < count; ++i) {
        if (vmask.test(path[i].to)) continue;
        vmask.set(path[i].to);
        out.ids.push_back(path[i].to);
        progressed = true;
      }
    } else {
      for (std::size_t i = 1; i < path.size() && out.ids.size() < count; ++i) {
        if (emask.test(path[i].edge)) continue;
        emask.set(path[i].edge);
        out.ids.push_back(path[i].edge);
        progressed = true;
      }
    }
    if (!progressed) break;  // direct edge only (no interior): cannot extend
  }
  // Pad with uniform elements so the set always has full size when possible.
  const auto universe =
      static_cast<std::uint32_t>(model == FaultModel::vertex ? g.n() : g.m());
  ScratchMask used(universe);
  for (const auto id : out.ids) used.set(id);
  if (model == FaultModel::vertex) {
    used.set(pu);
    used.set(pv);
  }
  while (out.ids.size() < count && used.touched().size() < universe) {
    const auto id = static_cast<std::uint32_t>(rng.next_below(universe));
    if (!used.test(id)) {
      used.set(id);
      out.ids.push_back(id);
    }
  }
  return out;
}

FaultSet generate_attack(const Graph& g, const Graph& h, FaultModel model,
                         std::uint32_t count, AttackStrategy strategy, Rng& rng) {
  FTSPAN_REQUIRE(h.n() == g.n(), "spanner must share G's vertex set");
  switch (strategy) {
    case AttackStrategy::uniform:
      return attack_uniform(g, model, count, rng);
    case AttackStrategy::high_degree:
      return attack_high_degree(g, h, model, count, rng);
    case AttackStrategy::neighborhood:
      return attack_neighborhood(g, h, model, count, rng);
    case AttackStrategy::detour_hitting:
      return attack_detour_hitting(g, h, model, count, rng);
  }
  FTSPAN_ASSERT(false, "unknown attack strategy");
}

FaultSet generate_mixed_attack(const Graph& g, const Graph& h, FaultModel model,
                               std::uint32_t count, std::uint32_t trial_index,
                               Rng& rng) {
  constexpr AttackStrategy kCycle[] = {
      AttackStrategy::uniform, AttackStrategy::high_degree,
      AttackStrategy::neighborhood, AttackStrategy::detour_hitting};
  return generate_attack(g, h, model, count, kCycle[trial_index % 4], rng);
}

}  // namespace ftspan
