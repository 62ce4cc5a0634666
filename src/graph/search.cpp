#include "graph/search.h"

#include <algorithm>
#include <functional>

#include "util/check.h"

namespace ftspan {

FaultView make_fault_view(const Mask* vertices, const Mask* edges) {
  FaultView fv;
  if (vertices != nullptr) fv.failed_vertices = vertices->bytes();
  if (edges != nullptr) fv.failed_edges = edges->bytes();
  return fv;
}

// ---------------------------------------------------------------- BfsRunner

BfsRunner::BfsRunner(std::size_t n) { ensure(n); }

void BfsRunner::ensure(std::size_t n) {
  if (n <= capacity()) return;
  const std::size_t want = slab_round_up(n);
  dist_.resize(want);
  stamp_.resize(want, 0);
  parent_.resize(want);
  parent_arc_.resize(want);
}

void BfsRunner::ensure_session_arrays() {
  if (tmark_.size() < capacity()) {
    tmark_.resize(capacity(), 0);
    amark_.resize(capacity(), 0);
  }
}

std::size_t BfsRunner::arena_bytes() const noexcept {
  auto bytes = [](const auto& v) {
    return v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  return bytes(dist_) + bytes(stamp_) + bytes(parent_) + bytes(parent_arc_) +
         bytes(queue_) + bytes(iqueue_) + bytes(tmark_) + bytes(amark_);
}

void BfsRunner::begin_epoch() {
  ++epoch_;
  if (epoch_ == 0) {  // wrapped: invalidate all stamps
    for (auto& stamp : stamp_) stamp = 0;
    for (auto& mark : tmark_) mark = 0;
    for (auto& mark : amark_) mark = 0;
    epoch_ = 1;
  }
  queue_.clear();
}

template <bool kCheckVertices, bool kCheckEdges>
std::uint32_t BfsRunner::run_impl(const Graph& g, VertexId s, VertexId t,
                                  const FaultView& faults,
                                  std::uint32_t max_hops) {
  std::uint32_t* const dist = dist_.data();
  std::uint32_t* const stamp = stamp_.data();
  VertexId* const parent = parent_.data();
  EdgeId* const parc = parent_arc_.data();
  dist[s] = 0;
  stamp[s] = epoch_;
  parent[s] = kInvalidVertex;
  parc[s] = kInvalidEdge;
  queue_.push_back(s);
  // With a concrete target, vertices landing exactly at max_hops can never be
  // expanded, so only t itself is worth stamping at that depth.  Skipping the
  // rest avoids writing the deepest — and by far largest — BFS level without
  // changing any reported distance, parent, or path: the expansion sequence
  // of shallower vertices is untouched, and t is still discovered by the same
  // expander.  (all_hops passes t == kInvalidVertex and is exempt, since it
  // must report the full last level.)
  const bool prune_frontier = t != kInvalidVertex;

  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const VertexId u = queue_[head];
    const std::uint32_t du = dist[u];
    if (u == t) return du;
    if (du >= max_hops) break;  // queue distances are nondecreasing
    const bool frontier_next = prune_frontier && du + 1 >= max_hops;
    const auto arcs = g.neighbors(u);
    arcs_scanned_ += arcs.size();
    for (const auto& arc : arcs) {
      if (frontier_next && arc.to != t) continue;
      if (stamp[arc.to] == epoch_) continue;
      if constexpr (kCheckEdges) {
        if (!faults.edge_alive(arc.edge)) continue;
      }
      if constexpr (kCheckVertices) {
        if (!faults.vertex_alive(arc.to)) continue;
      }
      dist[arc.to] = du + 1;
      stamp[arc.to] = epoch_;
      parent[arc.to] = u;
      parc[arc.to] = arc.edge;
      queue_.push_back(arc.to);
    }
  }
  if (t == kInvalidVertex) return kUnreachableHops;
  return stamp[t] == epoch_ ? dist[t] : kUnreachableHops;
}

std::uint32_t BfsRunner::run(const Graph& g, VertexId s, VertexId t,
                             const FaultView& faults, std::uint32_t max_hops) {
  FTSPAN_REQUIRE(s < g.n() && (t == kInvalidVertex || t < g.n()),
                 "search endpoint out of range");
  ensure(g.n());
  begin_epoch();
  if (!faults.vertex_alive(s)) return kUnreachableHops;
  if (t != kInvalidVertex && !faults.vertex_alive(t)) return kUnreachableHops;

  // Dispatch once on the mask shape so the arc loop carries no dead checks.
  const bool check_v = !faults.failed_vertices.empty();
  const bool check_e = !faults.failed_edges.empty();
  if (check_v && check_e) return run_impl<true, true>(g, s, t, faults, max_hops);
  if (check_v) return run_impl<true, false>(g, s, t, faults, max_hops);
  if (check_e) return run_impl<false, true>(g, s, t, faults, max_hops);
  return run_impl<false, false>(g, s, t, faults, max_hops);
}

std::uint32_t BfsRunner::hop_distance(const Graph& g, VertexId s, VertexId t,
                                      const FaultView& faults,
                                      std::uint32_t max_hops) {
  const std::uint32_t d = run(g, s, t, faults, max_hops);
  return d <= max_hops ? d : kUnreachableHops;
}

bool BfsRunner::shortest_path(const Graph& g, VertexId s, VertexId t,
                              std::vector<VertexId>& out, const FaultView& faults,
                              std::uint32_t max_hops) {
  const std::uint32_t d = run(g, s, t, faults, max_hops);
  if (d > max_hops || d == kUnreachableHops) return false;
  out.clear();
  for (VertexId v = t; v != kInvalidVertex; v = parent_[v]) out.push_back(v);
  std::reverse(out.begin(), out.end());
  FTSPAN_ASSERT(out.front() == s && out.back() == t, "path endpoints mismatch");
  return true;
}

bool BfsRunner::shortest_path_arcs(const Graph& g, VertexId s, VertexId t,
                                   std::vector<PathStep>& out,
                                   const FaultView& faults,
                                   std::uint32_t max_hops) {
  const std::uint32_t d = run(g, s, t, faults, max_hops);
  if (d > max_hops || d == kUnreachableHops) return false;
  path_arcs_to(t, out);
  FTSPAN_ASSERT(out.front().to == s, "path source mismatch");
  return true;
}

void BfsRunner::path_arcs_to(VertexId v, std::vector<PathStep>& out) const {
  FTSPAN_ASSERT(v < capacity() && stamp_[v] == epoch_,
                "path_arcs_to target was not reached by the last search");
  out.clear();
  for (VertexId x = v; x != kInvalidVertex; x = parent_[x])
    out.push_back(PathStep{x, parent_arc_[x]});
  std::reverse(out.begin(), out.end());
}

// ------------------------------------------------- terminal-tree sessions

void BfsRunner::tree_begin(const Graph& g, VertexId s,
                           std::span<const VertexId> targets,
                           const FaultView& faults, std::uint32_t max_hops) {
  FTSPAN_REQUIRE(s < g.n(), "tree source out of range");
  ensure(g.n());
  ensure_session_arrays();
  begin_epoch();
  tree_g_ = &g;
  tree_faults_ = faults;
  tree_max_hops_ = max_hops;
  tree_epoch_ = epoch_;
  tree_head_ = 0;
  for (const VertexId v : targets) {
    FTSPAN_REQUIRE(v < g.n(), "tree target out of range");
    if (faults.vertex_alive(v)) tmark_[v] = epoch_;
  }
  if (!faults.vertex_alive(s)) return;  // empty tree: every answer unreachable
  dist_[s] = 0;
  stamp_[s] = epoch_;
  parent_[s] = kInvalidVertex;
  parent_arc_[s] = kInvalidEdge;
  queue_.push_back(s);
}

template <bool kCheckVertices, bool kCheckEdges>
std::uint32_t BfsRunner::tree_next_impl(VertexId v) {
  const Graph& g = *tree_g_;
  const FaultView& faults = tree_faults_;
  const std::uint32_t max_hops = tree_max_hops_;
  std::uint32_t* const dist = dist_.data();
  std::uint32_t* const stamp = stamp_.data();
  VertexId* const parent = parent_.data();
  EdgeId* const parc = parent_arc_.data();

  while (tree_head_ < queue_.size()) {
    const VertexId u = queue_[tree_head_];
    const std::uint32_t du = dist[u];
    if (tmark_[u] == epoch_) {  // a pending target settles when popped
      tmark_[u] = 0;
      amark_[u] = epoch_;
    }
    if (du >= max_hops) {  // deepest level: popped, never scanned
      ++tree_head_;
      if (u == v) return du;
      continue;
    }
    if (u == v) return du;  // stop *before* scanning v, like the u == t return
    ++tree_head_;
    const bool frontier_next = du + 1 >= max_hops;
    const auto arcs = g.neighbors(u);
    arcs_scanned_ += arcs.size();
    for (const auto& arc : arcs) {
      if (frontier_next && tmark_[arc.to] != epoch_) continue;
      if (stamp[arc.to] == epoch_) continue;
      if constexpr (kCheckEdges) {
        if (!faults.edge_alive(arc.edge)) continue;
      }
      if constexpr (kCheckVertices) {
        if (!faults.vertex_alive(arc.to)) continue;
      }
      dist[arc.to] = du + 1;
      stamp[arc.to] = epoch_;
      parent[arc.to] = u;
      parc[arc.to] = arc.edge;
      queue_.push_back(arc.to);
    }
  }
  return kUnreachableHops;
}

std::uint32_t BfsRunner::tree_next(VertexId v) {
  FTSPAN_REQUIRE(tree_g_ != nullptr && tree_epoch_ == epoch_,
                 "no open terminal-tree session (another search ended it?)");
  FTSPAN_REQUIRE(v < tree_g_->n(), "tree target out of range");
  if (!tree_faults_.vertex_alive(v)) return kUnreachableHops;
  FTSPAN_REQUIRE(tmark_[v] == epoch_ || amark_[v] == epoch_,
                 "tree_next target was not in the tree_begin target set");
  if (amark_[v] == epoch_) return dist_[v];

  const bool check_v = !tree_faults_.failed_vertices.empty();
  const bool check_e = !tree_faults_.failed_edges.empty();
  if (check_v && check_e) return tree_next_impl<true, true>(v);
  if (check_v) return tree_next_impl<true, false>(v);
  if (check_e) return tree_next_impl<false, true>(v);
  return tree_next_impl<false, false>(v);
}

std::size_t BfsRunner::tree_insert_source_arc(VertexId v, EdgeId via_edge) {
  FTSPAN_REQUIRE(tree_g_ != nullptr && tree_epoch_ == epoch_,
                 "no open terminal-tree session (another search ended it?)");
  FTSPAN_REQUIRE(tree_head_ == queue_.size(),
                 "tree_insert_source_arc requires an exhausted session");
  const Graph& g = *tree_g_;
  const FaultView& faults = tree_faults_;
  FTSPAN_REQUIRE(v < g.n(), "tree graft target out of range");
  if (queue_.empty() || !faults.vertex_alive(v)) return 0;  // dead source/target
  FTSPAN_REQUIRE(stamp_[v] != epoch_,
                 "tree graft target was already reached (not an accept?)");
  const std::uint32_t max_hops = tree_max_hops_;
  const VertexId s = queue_.front();

  // v enters at depth 1 over the grafted arc.  Improved vertices are
  // answered/memoized here, never appended to queue_: tree_head_ stays at
  // the end, so pending targets the improvement wave misses keep falling
  // through tree_next to the unreachable answer.
  dist_[v] = 1;
  stamp_[v] = epoch_;
  parent_[v] = s;
  parent_arc_[v] = via_edge;
  if (tmark_[v] == epoch_ || amark_[v] == epoch_) {
    tmark_[v] = 0;
    amark_[v] = epoch_;
  }

  iqueue_.clear();
  iqueue_.push_back(v);
  for (std::size_t head = 0; head < iqueue_.size(); ++head) {
    const VertexId x = iqueue_[head];
    const std::uint32_t dx = dist_[x];
    if (dx >= max_hops) continue;  // deepest level: never scanned
    const bool frontier_next = dx + 1 >= max_hops;
    const auto arcs = g.neighbors(x);
    arcs_scanned_ += arcs.size();
    for (const auto& arc : arcs) {
      if (frontier_next && tmark_[arc.to] != epoch_) continue;
      const std::uint32_t nd = dx + 1;
      if (stamp_[arc.to] == epoch_ && dist_[arc.to] <= nd) continue;
      if (!faults.edge_alive(arc.edge)) continue;
      if (!faults.vertex_alive(arc.to)) continue;
      dist_[arc.to] = nd;
      stamp_[arc.to] = epoch_;
      parent_[arc.to] = x;
      parent_arc_[arc.to] = arc.edge;
      if (tmark_[arc.to] == epoch_) {
        tmark_[arc.to] = 0;
        amark_[arc.to] = epoch_;
      }
      iqueue_.push_back(arc.to);
    }
  }
  return iqueue_.size();
}

void BfsRunner::all_hops(const Graph& g, VertexId s, std::vector<std::uint32_t>& out,
                         const FaultView& faults, std::uint32_t max_hops) {
  run(g, s, kInvalidVertex, faults, max_hops);
  out.assign(g.n(), kUnreachableHops);
  for (VertexId v = 0; v < g.n(); ++v)
    if (stamp_[v] == epoch_ && dist_[v] <= max_hops) out[v] = dist_[v];
}

// ----------------------------------------------------------- DijkstraRunner

DijkstraRunner::DijkstraRunner(std::size_t n) { ensure(n); }

void DijkstraRunner::ensure(std::size_t n) {
  if (n <= node_.size()) return;
  node_.resize(slab_round_up(n));
  tmark_.resize(node_.size(), 0);
}

std::size_t DijkstraRunner::arena_bytes() const noexcept {
  return node_.capacity() * sizeof(Node) +
         tmark_.capacity() * sizeof(std::uint32_t) +
         heap_.capacity() * sizeof(std::pair<Weight, VertexId>);
}

void DijkstraRunner::begin_epoch() {
  ++epoch_;
  if (epoch_ == 0) {
    for (auto& node : node_) node.stamp = 0;
    for (auto& mark : tmark_) mark = 0;
    epoch_ = 1;
  }
}

Weight DijkstraRunner::settled_distance(VertexId v) const noexcept {
  return (node_[v].stamp == epoch_ && node_[v].settled != 0)
             ? node_[v].dist
             : kUnreachableWeight;
}

void DijkstraRunner::run(const Graph& g, VertexId s,
                         std::span<const VertexId> targets,
                         const FaultView& faults, Weight budget) {
  FTSPAN_REQUIRE(s < g.n(), "search endpoint out of range");
  ensure(g.n());
  begin_epoch();
  // A failed target never settles, so only live ones are waited for (each
  // once); when no target is live there is nothing to search for.
  std::size_t pending = 0;
  for (const VertexId t : targets) {
    FTSPAN_REQUIRE(t < g.n(), "search endpoint out of range");
    if (faults.vertex_alive(t) && tmark_[t] != epoch_) {
      tmark_[t] = epoch_;
      ++pending;
    }
  }
  if (!faults.vertex_alive(s) || (!targets.empty() && pending == 0)) return;

  // Min-heap over the reused member buffer: push_heap/pop_heap with the same
  // std::greater comparison std::priority_queue would use, so the pop order
  // — and therefore every parent pick — is identical, but the buffer keeps
  // its high-water capacity across the Θ(m·f) searches of a build.
  const std::greater<> cmp{};
  heap_.clear();
  Node* const node = node_.data();
  node[s] = Node{0.0, kInvalidVertex, kInvalidEdge, epoch_, 0};
  heap_.emplace_back(0.0, s);

  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), cmp);
    const auto [du, u] = heap_.back();
    heap_.pop_back();
    if (node[u].stamp != epoch_ || node[u].settled != 0 || du > node[u].dist)
      continue;
    node[u].settled = 1;
    if (du > budget) break;
    if (tmark_[u] == epoch_ && --pending == 0) return;
    const auto arcs = g.neighbors(u);
    arcs_scanned_ += arcs.size();
    for (const auto& arc : arcs) {
      if (!faults.edge_alive(arc.edge) || !faults.vertex_alive(arc.to)) continue;
      const Weight cand = du + arc.w;
      if (cand > budget) continue;
      if (node[arc.to].stamp != epoch_ || cand < node[arc.to].dist) {
        node[arc.to] = Node{cand, u, arc.edge, epoch_, 0};
        heap_.emplace_back(cand, arc.to);
        std::push_heap(heap_.begin(), heap_.end(), cmp);
      }
    }
  }
}

Weight DijkstraRunner::distance(const Graph& g, VertexId s, VertexId t,
                                const FaultView& faults, Weight budget) {
  run(g, s, std::span(&t, 1), faults, budget);
  return settled_distance(t);
}

void DijkstraRunner::distances(const Graph& g, VertexId s,
                               std::span<const VertexId> targets,
                               std::vector<Weight>& out,
                               const FaultView& faults, Weight budget) {
  run(g, s, targets, faults, budget);
  out.resize(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i)
    out[i] = settled_distance(targets[i]);
}

bool DijkstraRunner::shortest_path(const Graph& g, VertexId s, VertexId t,
                                   std::vector<VertexId>& out,
                                   const FaultView& faults, Weight budget) {
  if (distance(g, s, t, faults, budget) == kUnreachableWeight) return false;
  out.clear();
  for (VertexId v = t; v != kInvalidVertex; v = node_[v].parent) out.push_back(v);
  std::reverse(out.begin(), out.end());
  FTSPAN_ASSERT(out.front() == s && out.back() == t, "path endpoints mismatch");
  return true;
}

bool DijkstraRunner::shortest_path_arcs(const Graph& g, VertexId s, VertexId t,
                                        std::vector<PathStep>& out,
                                        const FaultView& faults, Weight budget) {
  if (distance(g, s, t, faults, budget) == kUnreachableWeight) return false;
  out.clear();
  for (VertexId v = t; v != kInvalidVertex; v = node_[v].parent)
    out.push_back(PathStep{v, node_[v].parent_arc});
  std::reverse(out.begin(), out.end());
  FTSPAN_ASSERT(out.front().to == s && out.back().to == t,
                "path endpoints mismatch");
  return true;
}

void DijkstraRunner::all_distances(const Graph& g, VertexId s,
                                   std::vector<Weight>& out,
                                   const FaultView& faults, Weight budget) {
  run(g, s, {}, faults, budget);
  out.assign(g.n(), kUnreachableWeight);
  for (VertexId v = 0; v < g.n(); ++v)
    if (node_[v].stamp == epoch_ && node_[v].settled != 0 &&
        node_[v].dist <= budget)
      out[v] = node_[v].dist;
}

}  // namespace ftspan
