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
    tpos_.resize(capacity(), 0);
    pidx_.resize(capacity(), 0);
  }
}

void BfsRunner::ensure_repair_arrays() {
  if (rdist_.size() < capacity()) {
    rdist_.resize(capacity(), 0);
    rpar_.resize(capacity(), 0);
    redge_.resize(capacity(), 0);
    rpidx_.resize(capacity(), 0);
    rqueued_.resize(capacity(), 0);
    fstamp_.resize(capacity(), 0);
    mstamp_.resize(capacity(), 0);
  }
}

std::size_t BfsRunner::arena_bytes() const noexcept {
  auto bytes = [](const auto& v) {
    return v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  std::size_t total = bytes(dist_) + bytes(stamp_) + bytes(parent_) +
                      bytes(parent_arc_) + bytes(queue_) + bytes(iqueue_) +
                      bytes(tmark_) +
                      bytes(amark_) + bytes(tpos_) + bytes(pidx_) +
                      bytes(rdist_) + bytes(rpar_) + bytes(redge_) +
                      bytes(rpidx_) + bytes(rqueued_) + bytes(fstamp_) +
                      bytes(mstamp_) + bytes(rlog_) + bytes(rbuckets_);
  for (const auto& bucket : rbuckets_) total += bytes(bucket);
  return total;
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
  expanded_count_ = 0;
  repair_ready_ = false;  // any new search or session drops the repair state
  repair_dirty_ = false;
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

  std::size_t head = 0;
  for (; head < queue_.size(); ++head) {
    const VertexId u = queue_[head];
    const std::uint32_t du = dist[u];
    if (u == t) {
      expanded_count_ = head;
      return du;
    }
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
  expanded_count_ = head;
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
  pidx_[s] = kInvalidVertex;
  queue_.push_back(s);
}

template <bool kCheckVertices, bool kCheckEdges>
BfsTreeAnswer BfsRunner::tree_next_impl(VertexId v) {
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
    if (tmark_[u] == epoch_) {
      // A pending target settles the moment it is popped; its read set is
      // what a dedicated search would have expanded by now: everything ahead
      // of it in the queue when du < max_hops, and the final (frozen, since
      // the deepest level is never scanned) expansion count otherwise.
      tmark_[u] = 0;
      amark_[u] = epoch_;
      tpos_[u] = du < max_hops ? tree_head_ : expanded_count_;
    }
    if (du >= max_hops) {  // deepest level: popped, never scanned
      ++tree_head_;
      if (u == v) return {du, tpos_[u]};
      continue;
    }
    if (u == v)  // stop *before* scanning v, exactly like the u == t return
      return {du, tpos_[u]};
    ++expanded_count_;
    ++tree_head_;
    const bool frontier_next = du + 1 >= max_hops;
    const auto arcs = g.neighbors(u);
    arcs_scanned_ += arcs.size();
    for (std::size_t ai = 0; ai < arcs.size(); ++ai) {
      const auto& arc = arcs[ai];
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
      // Discovery row index: the sigma component repairs compare to
      // reconstruct discovery order without replaying the BFS.
      pidx_[arc.to] = static_cast<std::uint32_t>(ai);
      queue_.push_back(arc.to);
    }
  }
  return {kUnreachableHops, expanded_count_};
}

BfsTreeAnswer BfsRunner::tree_next(VertexId v) {
  FTSPAN_REQUIRE(tree_g_ != nullptr && tree_epoch_ == epoch_,
                 "no open terminal-tree session (another search ended it?)");
  FTSPAN_ASSERT(!repair_dirty_,
                "tree_next with outstanding repairs (tree_rollback first)");
  FTSPAN_REQUIRE(v < tree_g_->n(), "tree target out of range");
  if (!tree_faults_.vertex_alive(v)) return {kUnreachableHops, 0};
  FTSPAN_REQUIRE(tmark_[v] == epoch_ || amark_[v] == epoch_,
                 "tree_next target was not in the tree_begin target set");
  if (amark_[v] == epoch_) return {dist_[v], tpos_[v]};

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
  FTSPAN_ASSERT(!repair_dirty_,
                "tree_insert_source_arc with outstanding repairs");
  repair_ready_ = false;  // repair mirrors of the pre-graft tree are stale
  const Graph& g = *tree_g_;
  const FaultView& faults = tree_faults_;
  FTSPAN_REQUIRE(v < g.n(), "tree graft target out of range");
  if (queue_.empty() || !faults.vertex_alive(v)) return 0;  // dead source/target
  FTSPAN_REQUIRE(stamp_[v] != epoch_,
                 "tree graft target was already reached (not an accept?)");
  const std::uint32_t max_hops = tree_max_hops_;
  const VertexId s = queue_.front();

  // v enters at depth 1 over the grafted arc (the last arc of the source's
  // row).  Improved vertices are answered/memoized here, never appended to
  // queue_: tree_head_ stays at the end, so pending targets the improvement
  // wave misses keep falling through tree_next to the unreachable answer.
  dist_[v] = 1;
  stamp_[v] = epoch_;
  parent_[v] = s;
  parent_arc_[v] = via_edge;
  pidx_[v] = static_cast<std::uint32_t>(g.degree(s) - 1);
  if (tmark_[v] == epoch_ || amark_[v] == epoch_) {
    tmark_[v] = 0;
    amark_[v] = epoch_;
    tpos_[v] = expanded_count_;
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
    for (std::size_t ai = 0; ai < arcs.size(); ++ai) {
      const auto& arc = arcs[ai];
      if (frontier_next && tmark_[arc.to] != epoch_) continue;
      const std::uint32_t nd = dx + 1;
      if (stamp_[arc.to] == epoch_ && dist_[arc.to] <= nd) continue;
      if (!faults.edge_alive(arc.edge)) continue;
      if (!faults.vertex_alive(arc.to)) continue;
      dist_[arc.to] = nd;
      stamp_[arc.to] = epoch_;
      parent_[arc.to] = x;
      parent_arc_[arc.to] = arc.edge;
      pidx_[arc.to] = static_cast<std::uint32_t>(ai);
      if (tmark_[arc.to] == epoch_) {
        tmark_[arc.to] = 0;
        amark_[arc.to] = epoch_;
        tpos_[arc.to] = expanded_count_;
      }
      iqueue_.push_back(arc.to);
    }
  }
  return iqueue_.size();
}

// ------------------------------------------- masked-tree incremental repair

namespace {
// repair_array ids (RepairLogEntry::array).
constexpr std::uint8_t kRDist = 0, kRPar = 1, kREdge = 2, kRPidx = 3;
}  // namespace

std::vector<std::uint32_t>& BfsRunner::repair_array(std::uint8_t id) {
  switch (id) {
    case kRDist: return rdist_;
    case kRPar: return rpar_;
    case kREdge: return redge_;
    default: return rpidx_;
  }
}

void BfsRunner::repair_set(std::uint8_t array, VertexId index,
                           std::uint32_t value) {
  auto& arr = repair_array(array);
  rlog_.push_back(RepairLogEntry{array, index, arr[index]});
  arr[index] = value;
}

void BfsRunner::tree_complete() {
  FTSPAN_REQUIRE(tree_g_ != nullptr && tree_epoch_ == epoch_,
                 "no open terminal-tree session (another search ended it?)");
  // kInvalidVertex matches no popped vertex, so the session runs to
  // exhaustion; pending targets are answered exactly as tree_next would
  // have answered them (the settle marking happens on pop regardless).
  const bool check_v = !tree_faults_.failed_vertices.empty();
  const bool check_e = !tree_faults_.failed_edges.empty();
  if (check_v && check_e)
    (void)tree_next_impl<true, true>(kInvalidVertex);
  else if (check_v)
    (void)tree_next_impl<true, false>(kInvalidVertex);
  else if (check_e)
    (void)tree_next_impl<false, true>(kInvalidVertex);
  else
    (void)tree_next_impl<false, false>(kInvalidVertex);
}

void BfsRunner::repair_init() {
  FTSPAN_REQUIRE(tree_max_hops_ != kUnreachableHops,
                 "masked-tree repair requires a finite session max_hops");
  tree_complete();
  ensure_repair_arrays();
  for (const VertexId x : queue_) {
    rdist_[x] = dist_[x];
    rpar_[x] = parent_[x];
    redge_[x] = parent_arc_[x];
    rpidx_[x] = pidx_[x];
  }
  if (rbuckets_.size() < static_cast<std::size_t>(tree_max_hops_) + 2)
    rbuckets_.resize(static_cast<std::size_t>(tree_max_hops_) + 2);
  rlog_.clear();
  ++mserial_;  // a fresh batch starts with no re-pick marks
  if (mserial_ == 0) {
    for (auto& stamp : mstamp_) stamp = 0;
    mserial_ = 1;
  }
  repair_ready_ = true;
  repair_dirty_ = false;
}

void BfsRunner::repair_enqueue(VertexId w) {
  // Dedup while queued (several neighbors may report the same dependent);
  // the stamp clears on pop so a vertex re-threatened after surviving one
  // support check is re-examined.
  if (rqueued_[w] == rqueue_stamp_) return;
  rqueued_[w] = rqueue_stamp_;
  rbuckets_[rdist_[w]].push_back(w);
}

bool BfsRunner::sigma_less(VertexId a, VertexId b) const {
  // Discovery order compares the two chains' row-index sequences from the
  // source outward; since both chains are rooted at the same source, the
  // first root-side divergence is exactly the pair of arcs entering their
  // lowest common ancestor.  Walking both chains (same depth) in lockstep
  // until the parents meet finds it in O(depth) with no materialization —
  // distinct same-level vertices always meet, at the source if nowhere
  // earlier, and two distinct children of the meet vertex cannot share a
  // row index.  Both chains must be resolved (repair_resolve) first.
  VertexId x1 = a, x2 = b;
  while (true) {
    const VertexId p1 = rpar_[x1], p2 = rpar_[x2];
    if (p1 == p2) return rpidx_[x1] < rpidx_[x2];
    x1 = p1;
    x2 = p2;
  }
}

void BfsRunner::repair_resolve(VertexId w) {
  // Re-establishes the lex-min invariant for w's stored chain under the
  // accumulated cut, lazily: distances are maintained eagerly by
  // tree_repair_cut, but parent arcs are only re-chosen for the vertices a
  // query actually touches.  Soundness rests on monotonicity: masking only
  // removes paths, so every vertex's lex-min sigma can only grow — a stored
  // chain that is still *intact* (links alive, levels consecutive) kept its
  // old sigma and therefore is still the minimum.  Only broken chains need
  // a tournament, and the tournament recursion descends strictly one level,
  // memoized per repair state via fstamp_.
  if (fstamp_[w] == fserial_) return;
  const std::uint32_t d = rdist_[w];
  if (d == 0) {  // the session source: root of every chain
    fstamp_[w] = fserial_;
    return;
  }
  const bool check_edges = !repair_cut_.failed_edges.empty();
  const Graph& g = *tree_g_;

  // Fast path: walk the stored chain all the way to the source.  The chain
  // is trusted only if every link is intact (consecutive levels, arc alive)
  // AND no vertex on it has been re-picked at any point this decision
  // (mstamp_): an untouched intact chain is the clean chain with its
  // original sigma value, which monotonicity keeps minimal; a chain through
  // any re-picked vertex lost that anchor and must re-run the tournament.
  bool valid = mstamp_[w] != mserial_;
  for (VertexId x = w; valid;) {
    const VertexId p = rpar_[x];
    if (rdist_[p] != rdist_[x] - 1) {  // p cut, raised, or level-shifted
      valid = false;
      break;
    }
    if (check_edges && !repair_cut_.edge_alive(redge_[x])) {
      valid = false;
      break;
    }
    if (mstamp_[p] == mserial_) {  // p re-picked this decision
      valid = false;
      break;
    }
    if (rdist_[p] == 0) break;  // reached the source: fully intact
    x = p;
  }
  if (valid) {
    // The walk verified every suffix chain too: mark the whole run fresh.
    for (VertexId y = w; fstamp_[y] != fserial_;) {
      fstamp_[y] = fserial_;
      if (rdist_[y] == 0) break;
      y = rpar_[y];
    }
    return;
  }

  // Tournament: the dedicated BFS would have discovered w from the lex-min
  // alive neighbor one level up, over that neighbor's first alive arc to w.
  VertexId best = kInvalidVertex;
  repair_arcs_ += g.degree(w);
  for (const auto& arc : g.neighbors(w)) {
    if (check_edges && !repair_cut_.edge_alive(arc.edge)) continue;
    const VertexId x = arc.to;
    if (stamp_[x] != epoch_ || rdist_[x] != d - 1) continue;
    if (x == best) continue;  // parallel-arc repeat
    repair_resolve(x);
    if (best == kInvalidVertex || sigma_less(x, best)) best = x;
  }
  FTSPAN_ASSERT(best != kInvalidVertex,
                "repair_resolve: no support one level up (distance repair "
                "out of sync)");
  const auto row = g.neighbors(best);
  repair_arcs_ += row.size();
  std::size_t ri = 0;
  EdgeId via = kInvalidEdge;
  for (; ri < row.size(); ++ri) {
    if (row[ri].to != w) continue;
    if (check_edges && !repair_cut_.edge_alive(row[ri].edge)) continue;
    via = row[ri].edge;
    break;
  }
  FTSPAN_ASSERT(via != kInvalidEdge, "repair_resolve: discovery arc vanished");
  const bool changed = best != rpar_[w] || via != redge_[w];
  if (changed) {
    repair_set(kRPar, w, best);
    repair_set(kREdge, w, via);
    repair_set(kRPidx, w, static_cast<std::uint32_t>(ri));
    // Sticky for the rest of the decision: chains through w lost their
    // clean-sigma anchor, so later validity walks must not trust them.
    mstamp_[w] = mserial_;
  }
  fstamp_[w] = fserial_;
}

std::size_t BfsRunner::tree_repair_cut(std::span<const VertexId> vertices,
                                       std::span<const EdgeId> edges,
                                       const FaultView& cut) {
  FTSPAN_REQUIRE(tree_g_ != nullptr && tree_epoch_ == epoch_,
                 "no open terminal-tree session (another search ended it?)");
  if (!repair_ready_) repair_init();
  ++repair_count_;
  std::size_t wave = 0;  // distance changes applied by this increment
  repair_dirty_ = true;
  repair_cut_ = cut;  // retained for lazy resolution until the next rollback
  if (++rqueue_stamp_ == 0) {  // wrapped: invalidate all dedup stamps
    for (auto& stamp : rqueued_) stamp = 0;
    rqueue_stamp_ = 1;
  }
  if (++fserial_ == 0) {  // wrapped: invalidate all freshness stamps
    for (auto& stamp : fstamp_) stamp = 0;
    fserial_ = 1;
  }
  const Graph& g = *tree_g_;
  const bool check_edges = !cut.failed_edges.empty();

  // Seed the work list with the dependents of every newly cut element: only
  // vertices one level below a cut vertex / behind a cut arc can have lost
  // their distance support.
  for (const VertexId c : vertices) {
    if (c >= capacity() || stamp_[c] != epoch_) continue;  // off-tree
    if (rdist_[c] == kUnreachableHops) continue;  // already unreachable
    const std::uint32_t dc = rdist_[c];
    repair_set(kRDist, c, kUnreachableHops);  // c leaves the graph outright
    ++wave;
    repair_arcs_ += g.degree(c);
    for (const auto& arc : g.neighbors(c))
      if (stamp_[arc.to] == epoch_ && rdist_[arc.to] == dc + 1)
        repair_enqueue(arc.to);
  }
  for (const EdgeId e : edges) {
    const Edge& ed = g.edge(e);
    if (ed.u >= capacity() || stamp_[ed.u] != epoch_ ||
        ed.v >= capacity() || stamp_[ed.v] != epoch_)
      continue;
    const std::uint32_t du = rdist_[ed.u], dv = rdist_[ed.v];
    if (du == kUnreachableHops || dv == kUnreachableHops) continue;
    if (du == dv + 1)
      repair_enqueue(ed.u);
    else if (dv == du + 1)
      repair_enqueue(ed.v);
  }

  // Even-Shiloach pass, level by level: a vertex keeps its level iff some
  // alive arc still reaches a vertex one level up; otherwise it sinks one
  // level (re-examined from the deeper bucket, its dependents re-checked)
  // or falls off the tree past max_hops.  Levels only ever rise, so when
  // bucket d runs every rdist == d-1 is final.
  for (std::uint32_t d = 1; d <= tree_max_hops_; ++d) {
    auto& bucket = rbuckets_[d];
    // Within one level the final distances are order-free (support comes
    // only from the finalized level above), so the bucket may be processed
    // in any order without changing results.  Scan shortest rows first:
    // low-degree vertices are the likeliest to sink and re-enqueue work,
    // and surfacing that work early keeps the deeper buckets coherent
    // instead of interleaving short and kilo-arc row scans.
    std::sort(bucket.begin(), bucket.end(), [&g](VertexId a, VertexId b) {
      const std::size_t da = g.degree(a), db = g.degree(b);
      return da != db ? da < db : a < b;
    });
    for (std::size_t bi = 0; bi < bucket.size(); ++bi) {
      const VertexId w = bucket[bi];
      rqueued_[w] = 0;  // popped: later threats must re-enqueue
      if (rdist_[w] != d) continue;  // stale entry
      bool supported = false;
      repair_arcs_ += g.degree(w);
      for (const auto& arc : g.neighbors(w)) {
        if (check_edges && !cut.edge_alive(arc.edge)) continue;
        if (stamp_[arc.to] == epoch_ && rdist_[arc.to] == d - 1) {
          supported = true;
          break;
        }
      }
      if (supported) continue;
      const bool off = d + 1 > tree_max_hops_;
      repair_set(kRDist, w, off ? kUnreachableHops : d + 1);
      ++wave;
      repair_arcs_ += g.degree(w);
      for (const auto& arc : g.neighbors(w))
        if (stamp_[arc.to] == epoch_ && rdist_[arc.to] == d + 1)
          repair_enqueue(arc.to);
      if (!off) repair_enqueue(w);
    }
    bucket.clear();
  }
  return wave;
}

std::uint32_t BfsRunner::tree_masked_dist(VertexId v) const {
  FTSPAN_ASSERT(tree_g_ != nullptr && tree_epoch_ == epoch_,
                "tree_masked_dist outside a session");
  if (v >= capacity() || stamp_[v] != epoch_) return kUnreachableHops;
  return repair_ready_ ? rdist_[v] : dist_[v];
}

void BfsRunner::tree_masked_path_arcs(VertexId v, std::vector<PathStep>& out) {
  FTSPAN_ASSERT(repair_ready_ && tree_epoch_ == epoch_,
                "tree_masked_path_arcs without repair state");
  FTSPAN_ASSERT(v < capacity() && stamp_[v] == epoch_ &&
                    rdist_[v] != kUnreachableHops,
                "tree_masked_path_arcs target is not in the repaired tree");
  repair_resolve(v);  // after which the stored chain is the lex-min path
  out.clear();
  for (VertexId x = v; x != kInvalidVertex; x = rpar_[x])
    out.push_back(PathStep{x, redge_[x]});
  std::reverse(out.begin(), out.end());
}

bool BfsRunner::tree_masked_before(VertexId x, VertexId v) {
  FTSPAN_ASSERT(repair_ready_ && tree_epoch_ == epoch_,
                "tree_masked_before without repair state");
  repair_resolve(x);
  repair_resolve(v);
  return sigma_less(x, v);
}

void BfsRunner::tree_rollback() {
  FTSPAN_ASSERT(repair_ready_ && tree_epoch_ == epoch_,
                "tree_rollback without repair state");
  for (std::size_t i = rlog_.size(); i-- > 0;) {
    const RepairLogEntry& e = rlog_[i];
    repair_array(e.array)[e.index] = e.value;
  }
  rlog_.clear();
  repair_cut_ = FaultView{};
  ++fserial_;  // freshness marks belong to the rolled-back state
  if (fserial_ == 0) {
    for (auto& stamp : fstamp_) stamp = 0;
    fserial_ = 1;
  }
  ++mserial_;  // re-pick marks die with the decision's cut
  if (mserial_ == 0) {
    for (auto& stamp : mstamp_) stamp = 0;
    mserial_ = 1;
  }
  repair_dirty_ = false;
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
