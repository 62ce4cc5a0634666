#include "graph/subgraph.h"

#include "graph/search.h"
#include "util/check.h"

namespace ftspan {

Graph induced_subgraph(const Graph& g, std::span<const VertexId> verts,
                       std::vector<VertexId>* original,
                       std::vector<EdgeId>* edge_origin) {
  std::vector<VertexId> local(g.n(), kInvalidVertex);
  for (std::size_t i = 0; i < verts.size(); ++i) {
    FTSPAN_REQUIRE(verts[i] < g.n(), "induced_subgraph: vertex out of range");
    FTSPAN_REQUIRE(local[verts[i]] == kInvalidVertex,
                   "induced_subgraph: duplicate vertex");
    local[verts[i]] = static_cast<VertexId>(i);
  }
  Graph sub(verts.size(), g.weighted());
  if (edge_origin != nullptr) edge_origin->clear();
  for (EdgeId id = 0; id < g.m(); ++id) {
    const auto& e = g.edge(id);
    if (local[e.u] == kInvalidVertex || local[e.v] == kInvalidVertex) continue;
    sub.add_edge(local[e.u], local[e.v], e.w);
    if (edge_origin != nullptr) edge_origin->push_back(id);
  }
  if (original != nullptr) original->assign(verts.begin(), verts.end());
  return sub;
}

Mask fault_mask(const Graph& g, const FaultSet& faults) {
  const std::size_t universe =
      faults.model == FaultModel::vertex ? g.n() : g.m();
  Mask mask(universe);
  for (const auto id : faults.ids) {
    FTSPAN_REQUIRE(id < universe, "fault id out of range");
    mask.set(id);
  }
  return mask;
}

Graph remove_fault_set(const Graph& g, const FaultSet& faults) {
  const Mask mask = fault_mask(g, faults);
  if (faults.model == FaultModel::edge) return Graph::from_unmasked(g, mask.bytes());
  Graph out(g.n(), g.weighted());
  for (const auto& e : g.edges())
    if (!mask.test(e.u) && !mask.test(e.v)) out.add_edge(e.u, e.v, e.w);
  return out;
}

Graph edge_subgraph(const Graph& g, std::span<const EdgeId> edge_ids) {
  Graph out(g.n(), g.weighted());
  out.reserve_edges(edge_ids.size());
  for (const auto id : edge_ids) {
    const auto& e = g.edge(id);
    out.add_edge(e.u, e.v, e.w);
  }
  return out;
}

std::vector<VertexId> connected_components(const Graph& g, std::size_t* count,
                                           const FaultView& faults) {
  std::vector<VertexId> comp(g.n(), kInvalidVertex);
  std::vector<VertexId> queue;
  VertexId next_label = 0;
  for (VertexId root = 0; root < g.n(); ++root) {
    if (comp[root] != kInvalidVertex || !faults.vertex_alive(root)) continue;
    comp[root] = next_label;
    queue.assign(1, root);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const VertexId u = queue[head];
      for (const auto& arc : g.neighbors(u)) {
        if (comp[arc.to] != kInvalidVertex) continue;
        if (!faults.edge_alive(arc.edge) || !faults.vertex_alive(arc.to)) continue;
        comp[arc.to] = next_label;
        queue.push_back(arc.to);
      }
    }
    ++next_label;
  }
  if (count != nullptr) *count = next_label;
  return comp;
}

bool is_connected(const Graph& g, const FaultView& faults) {
  std::size_t count = 0;
  (void)connected_components(g, &count, faults);
  return count <= 1;
}

}  // namespace ftspan
