#include "service/churn_spanner.h"

#include <algorithm>
#include <utility>

#include "core/lbc.h"
#include "obs/obs.h"
#include "util/check.h"

namespace ftspan::service {

namespace {

const obs::Counter c_inserts("service.inserts");
const obs::Counter c_removals("service.removals");
const obs::Counter c_spanner_inserts("service.spanner_inserts");
const obs::Counter c_repair_decisions("service.repair.decisions");
const obs::Counter c_repair_promotions("service.repair.promotions");
const obs::Counter c_rebuilds("service.rebuilds");
const obs::Counter c_publishes("service.publishes");
const obs::Counter c_graph_copies("service.graph_copies");
const obs::Counter c_route_h_builds("service.route_h_builds");

/// Slack added to the weighted repair-candidate filter only.  The filter
/// selects a superset of the edges whose certificate may have used the
/// removed edge, and every candidate is re-decided exactly, so widening it
/// by rounding noise stays sound.  The decision itself (decide_spanned)
/// uses the exact budget t * w(e): the verifier allows no slack, so a
/// detour a hair over t * w(e) must not certify an edge as spanned.
constexpr Weight kBudgetEps = 1e-9;

}  // namespace

ChurnSpanner::ChurnSpanner(Graph initial, ChurnConfig config)
    : config_(config),
      n_(initial.n()),
      bfs_(initial.n()),
      dij_(initial.n()),
      vcut_(initial.n()) {
  config_.params.validate();
  if (config_.publish_every == 0) config_.publish_every = 1;
  obs::ScopedSpan span("service", "churn.init");
  auto build =
      modified_greedy_spanner(initial, config_.params, config_.rebuild);
  adopt_build(std::move(initial), std::move(build));
}

bool ChurnSpanner::decide_spanned(VertexId u, VertexId v, Weight w) {
  // LBC(t, f) against the maintained H (Algorithm 2's sweep loop,
  // lbc_sweeps): find up to f+1 budget-bounded u-v paths, cutting each
  // one's interior vertices (vertex model) / edges (edge model) before the
  // next sweep.  All f+1 paths found => they are pairwise disjoint => e is
  // spanned.  Any sweep failing => the accumulated <= f cut separates u
  // from v => not spanned.  Unweighted meshes sweep with a t-hop search
  // from both ends.  Weighted meshes sweep with budget-pruned Dijkstra
  // (budget t * w(e)): churn order is not weight order, so the
  // unweighted-view shortcut of the static greedy (Theorem 10) is unsound
  // here, while the weighted certificate composes unconditionally.  The
  // sweeps search h_, so edge cuts are H ids.  The edge being decided is
  // outside H (masked or absent in h_), and G has no parallel edges, so no
  // sweep can find the one-hop u-v path.
  const std::uint32_t t = config_.params.stretch();
  const FaultView view{vcut_.bytes(), h_out_};
  const LbcSweeps outcome = lbc_sweeps(
      config_.params.model, config_.params.f, path_,
      [&](std::uint32_t, std::vector<PathStep>& path) {
        return h_.weighted()
                   ? dij_.shortest_path_arcs(h_, u, v, path, view,
                                             static_cast<Weight>(t) * w)
                   : bfs_.two_ended_path_arcs(h_, u, v, path, view, t) !=
                         kUnreachableHops;
      },
      [&](VertexId x) { vcut_.set(x); },
      [&](EdgeId e) {
        if (h_out_[e] == 0) {
          h_out_[e] = 1;
          ecut_touched_.push_back(e);
        }
      });
  vcut_.reset_touched();
  for (const auto e : ecut_touched_) h_out_[e] = 0;
  ecut_touched_.clear();
  return !outcome.yes;
}

UpdateResult ChurnSpanner::insert(VertexId u, VertexId v, Weight w) {
  obs::ScopedSpan span("service", "churn.insert");
  EdgeId id;
  if (const auto existing = g_.find_edge(u, v)) {
    id = *existing;
    FTSPAN_REQUIRE(dead_[id] != 0, "edge already present");
    FTSPAN_REQUIRE(g_.edge(id).w == w,
                   "resurrected edge must keep its original weight");
    dead_[id] = 0;
    // A resurrected edge re-enters outside H (blocked_ stays 1, its H id,
    // if any, stays masked) and the decision below may promote it.
  } else {
    id = g_.add_edge(u, v, w);
    shared_g_.reset();  // the next publish copies G
    dead_.push_back(0);
    blocked_.push_back(1);
  }
  ++live_m_;
  max_live_w_ = std::max(max_live_w_, w);
  stats_.inserts += 1;
  c_inserts.add();

  if (!decide_spanned(u, v, w)) {
    join_h(id);
    stats_.spanner_inserts += 1;
    c_spanner_inserts.add();
  }
  UpdateResult result{id, in_h(id), 0, 0};
  note_update();
  result.epoch = snapshot()->epoch;
  return result;
}

UpdateResult ChurnSpanner::remove(VertexId u, VertexId v) {
  obs::ScopedSpan span("service", "churn.remove");
  const auto found = g_.find_edge(u, v);
  FTSPAN_REQUIRE(found.has_value(), "no such edge");
  const EdgeId id = *found;
  FTSPAN_REQUIRE(dead_[id] == 0, "edge already removed");
  const Weight w = g_.edge(id).w;

  dead_[id] = 1;
  --live_m_;
  stats_.removals += 1;
  c_removals.add();

  UpdateResult result{id, false, 0, 0};
  if (in_h(id)) {
    leave_h(id);
    stats_.spanner_removals += 1;
    result.repicked = repair_after_spanner_removal(u, v, w);
  }
  // A removed non-spanner edge needs no repair: it is already blocked_
  // (not in H), H is untouched, and no other edge's certificate
  // references it — certificates live entirely inside H.
  note_update();
  result.epoch = snapshot()->epoch;
  return result;
}

std::size_t ChurnSpanner::repair_after_spanner_removal(VertexId u, VertexId v,
                                                       Weight w) {
  obs::ScopedSpan span("service", "churn.repair");
  const std::uint32_t t = config_.params.stretch();
  const Graph& g = g_;
  const FaultView h_view{{}, h_out_};

  // Distance waves from the removed edge's endpoints in the post-removal
  // spanner H' (searched on h_).  Any live non-H edge {x,y} whose
  // certificate routed a path through the removed edge satisfies (up to u/v
  // symmetry)
  //   dist_{H'}(x,u) + w(e) + dist_{H'}(v,y) <= budget(x,y),
  // because the path's segments around e avoid e and hence survive in H' —
  // the wave distances lower-bound them.  The candidate scan reads G's rows.
  // Everything failing the test provably kept all f+1 disjoint detours and
  // is never re-examined.
  candidates_.clear();
  std::size_t ball = 0;
  if (g.weighted()) {
    const Weight budget = static_cast<Weight>(t) * max_live_w_ + kBudgetEps;
    dij_.all_distances(h_, u, du_w_, h_view, budget);
    dij_.all_distances(h_, v, dv_w_, h_view, budget);
    const auto seg = [&](VertexId x, VertexId y) {
      return std::min(du_w_[x] + dv_w_[y], du_w_[y] + dv_w_[x]);
    };
    for (VertexId x = 0; x < g.n(); ++x) {
      if (du_w_[x] == kUnreachableWeight && dv_w_[x] == kUnreachableWeight) {
        continue;
      }
      ++ball;
      if (du_w_[x] == kUnreachableWeight) continue;
      for (const auto& arc : g.neighbors(x)) {
        const EdgeId e = arc.edge;
        if (dead_[e] != 0 || in_h(e) || eseen_.test(e)) continue;
        if (seg(x, arc.to) + w <=
            static_cast<Weight>(t) * arc.w + kBudgetEps) {
          eseen_.set(e);
          candidates_.push_back(e);
        }
      }
    }
  } else {
    // Hop budget for edge {x,y} is t, so segments reach at most t-1 hops.
    const std::uint32_t reach = t > 0 ? t - 1 : 0;
    bfs_.all_hops(h_, u, du_hops_, h_view, reach);
    bfs_.all_hops(h_, v, dv_hops_, h_view, reach);
    const auto seg = [&](VertexId x, VertexId y) {
      const auto a = du_hops_[x] == kUnreachableHops || dv_hops_[y] == kUnreachableHops
                         ? kUnreachableHops
                         : du_hops_[x] + dv_hops_[y];
      const auto b = du_hops_[y] == kUnreachableHops || dv_hops_[x] == kUnreachableHops
                         ? kUnreachableHops
                         : du_hops_[y] + dv_hops_[x];
      return std::min(a, b);
    };
    for (VertexId x = 0; x < g.n(); ++x) {
      if (du_hops_[x] == kUnreachableHops && dv_hops_[x] == kUnreachableHops) {
        continue;
      }
      ++ball;
      if (du_hops_[x] == kUnreachableHops) continue;
      for (const auto& arc : g.neighbors(x)) {
        const EdgeId e = arc.edge;
        if (dead_[e] != 0 || in_h(e) || eseen_.test(e)) continue;
        if (seg(x, arc.to) != kUnreachableHops && seg(x, arc.to) + 1 <= t) {
          eseen_.set(e);
          candidates_.push_back(e);
        }
      }
    }
  }
  eseen_.reset_touched();
  stats_.repair_ball_vertices += ball;

  // Re-pick every candidate's decision against the current H.  Promotions
  // only grow H, which can never break an already-confirmed certificate
  // (the f+1 disjoint paths are still there), so any re-pick order is sound.
  std::size_t promoted = 0;
  for (const auto e : candidates_) {
    const Edge& edge = g.edge(e);
    stats_.repair_decisions += 1;
    c_repair_decisions.add();
    if (!decide_spanned(edge.u, edge.v, edge.w)) {
      join_h(e);
      ++promoted;
      stats_.repair_promotions += 1;
      c_repair_promotions.add();
    }
  }
  return promoted;
}

void ChurnSpanner::rebuild() {
  obs::ScopedSpan span("service", "churn.rebuild");
  Graph live = live_graph();
  auto build = modified_greedy_spanner(live, config_.params, config_.rebuild);
  adopt_build(std::move(live), std::move(build));
}

void ChurnSpanner::join_h(EdgeId id) {
  blocked_[id] = 0;
  ++spanner_m_;
  const Edge& e = g_.edge(id);
  if (const auto h_id = h_.find_edge(e.u, e.v)) {
    h_out_[*h_id] = 0;
  } else {
    h_.add_edge(e.u, e.v, e.w);
    h_out_.push_back(0);
  }
}

void ChurnSpanner::leave_h(EdgeId id) {
  blocked_[id] = 1;
  --spanner_m_;
  const Edge& e = g_.edge(id);
  h_out_[*h_.find_edge(e.u, e.v)] = 1;
}

void ChurnSpanner::adopt_build(Graph live, SpannerBuild build) {
  build.spanner = Graph{};  // only the picks are used: free it before h_ fills
  // The updater copies the compacted mesh into its own buffers, whose
  // capacity earlier appends already grew, and readers get the compacted
  // mesh itself: a rebuild allocates no new G, and its publish copies none.
  g_ = live;
  shared_g_ = std::make_shared<const Graph>(std::move(live));
  const Graph& g = g_;
  dead_.assign(g.m(), 0);
  blocked_.assign(g.m(), 1);
  for (const auto id : build.picked) blocked_[id] = 0;
  live_m_ = g.m();
  spanner_m_ = build.picked.size();
  // h_ lists the picks in G-id order, so each of its rows scans in the
  // order the same row of G does, and a sweep on h_ finds the path the same
  // sweep on G under the non-H mask would.  Copied, not moved, into h_ for
  // the same reason as G.
  const Graph picked = spanner_graph();
  h_ = picked;
  h_out_.assign(h_.m(), 0);
  max_live_w_ = 1.0;
  for (const auto& e : g.edges()) max_live_w_ = std::max(max_live_w_, e.w);
  vcut_.ensure_universe(g.n());
  eseen_.ensure_universe(g.m());
  stats_.rebuilds += 1;
  c_rebuilds.add();
  updates_since_rebuild_ = 0;
  publish_locked();
}

std::uint64_t ChurnSpanner::flush() {
  publish_locked();
  return epoch_;
}

void ChurnSpanner::note_update() {
  ++updates_since_rebuild_;
  ++unpublished_;
  eseen_.ensure_universe(g_.m());
  if (config_.rebuild_budget != 0 &&
      updates_since_rebuild_ >= config_.rebuild_budget) {
    rebuild();  // publishes
    return;
  }
  if (unpublished_ >= config_.publish_every) publish_locked();
}

void ChurnSpanner::publish_locked() {
  ++epoch_;
  stats_.publishes += 1;
  c_publishes.add();
  // Epochs share one copy of G until the updater appends to it; then the
  // next publish takes a fresh one.  G itself stays private to the updater,
  // so appends never write a Graph a reader holds.
  if (!shared_g_) {
    shared_g_ = std::make_shared<const Graph>(g_);
    c_graph_copies.add();
  }
  auto snap = std::make_shared<ChurnSnapshot>(shared_g_);
  snap->epoch = epoch_;
  snap->dead = dead_;
  snap->blocked = blocked_;
  snap->params = config_.params;
  snap->live_m = live_m_;
  snap->spanner_m = spanner_m_;
  snap->stats = stats_;
  std::shared_ptr<const ChurnSnapshot> previous = std::move(snap);
  {
    const std::lock_guard<std::mutex> lock(snap_mu_);
    snap_.swap(previous);
  }
  unpublished_ = 0;
  // `previous` is released here, outside the lock.
}

Graph ChurnSpanner::live_graph() const {
  return Graph::from_unmasked(g_, dead_);
}

Graph ChurnSpanner::spanner_graph() const {
  return Graph::from_unmasked(g_, blocked_);
}

OracleReport ChurnSpanner::oracle_check(std::uint32_t trials, Rng& rng,
                                        const ExecPolicy& exec) {
  obs::ScopedSpan span("service", "churn.oracle_check");
  OracleReport out;
  out.report = verify_sampled(live_graph(), spanner_graph(), config_.params,
                              trials, rng, exec);
  out.maintained_m = spanner_m_;
  return out;
}

void ChurnSnapshot::charge_masked_route(ArcIndex arcs) const {
  const ArcIndex price = 2 * static_cast<ArcIndex>(graph.m());
  const ArcIndex paid =
      masked_route_arcs_.fetch_add(arcs, std::memory_order_relaxed);
  if (paid >= price || paid + arcs < price) return;  // not the crossing charge
  compact_h_owner_ =
      std::make_unique<const Graph>(Graph::from_unmasked(graph, blocked));
  compact_h_.store(compact_h_owner_.get(), std::memory_order_release);
  c_route_h_builds.add();
}

bool snapshot_route(const ChurnSnapshot& snap, BfsRunner& bfs,
                    DijkstraRunner& dij, VertexId u, VertexId v, Route& out) {
  FTSPAN_REQUIRE(u < snap.graph.n() && v < snap.graph.n(),
                 "vertex out of range");
  const Graph* const h = snap.compact_spanner();
  const Graph& g = h != nullptr ? *h : snap.graph;
  const FaultView view = h != nullptr ? FaultView{} : snap.spanner_view();
  std::vector<PathStep> steps;
  const ArcIndex before = bfs.arcs_scanned() + dij.arcs_scanned();
  const bool found =
      g.weighted()
          ? dij.shortest_path_arcs(g, u, v, steps, view)
          : bfs.two_ended_path_arcs(g, u, v, steps, view) != kUnreachableHops;
  if (h == nullptr)
    snap.charge_masked_route(bfs.arcs_scanned() + dij.arcs_scanned() - before);

  out.path.clear();
  out.cost = 0.0;
  if (!found) return false;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    out.path.push_back(steps[i].to);
    if (i > 0) out.cost += g.edge(steps[i].edge).w;
  }
  return true;
}

Weight snapshot_distance(const ChurnSnapshot& snap, DijkstraRunner& runner,
                         VertexId u, VertexId v, const FaultView& view) {
  FTSPAN_REQUIRE(u < snap.graph.n() && v < snap.graph.n(),
                 "vertex out of range");
  return runner.distance(snap.graph, u, v, view);
}

}  // namespace ftspan::service
