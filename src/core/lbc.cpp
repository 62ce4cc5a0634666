#include "core/lbc.h"

#include "obs/obs.h"
#include "util/check.h"

namespace ftspan {

namespace {

const obs::Counter c_sweep_tree("sweep.tree_served");
const obs::Counter c_sweep_dedicated("sweep.dedicated");
const obs::Counter c_tree_sessions("tree.sessions");
const obs::Counter c_tree_grafts("tree.grafts");
const obs::Gauge g_graft_wave("graft.wave.max");

}  // namespace

template <class Sweep>
LbcResult LbcSolver::run_sweeps(const Graph& g, std::uint32_t alpha,
                                Sweep&& sweep) {
  vertex_cut_.ensure_universe(g.n());
  edge_cut_.ensure_universe(g.m());
  FaultView cut_view;
  if (model_ == FaultModel::vertex)
    cut_view.failed_vertices = vertex_cut_.bytes();
  else
    cut_view.failed_edges = edge_cut_.bytes();

  const LbcSweeps outcome = lbc_sweeps(
      model_, alpha, path_,
      [&](std::uint32_t i, std::vector<PathStep>& path) {
        return sweep(i, i == 0 ? FaultView{} : cut_view, path);
      },
      [&](VertexId x) { vertex_cut_.set(x); },
      [&](EdgeId e) { edge_cut_.set(e); });
  total_sweeps_ += outcome.sweeps;

  LbcResult result;
  result.yes = outcome.yes;
  result.sweeps = outcome.sweeps;
  result.cut.model = model_;
  const auto& touched = model_ == FaultModel::vertex ? vertex_cut_.touched()
                                                     : edge_cut_.touched();
  result.cut.ids.assign(touched.begin(), touched.end());
  vertex_cut_.reset_touched();
  edge_cut_.reset_touched();
  return result;
}

LbcResult LbcSolver::decide(const Graph& g, VertexId u, VertexId v,
                            std::uint32_t t, std::uint32_t alpha) {
  batch_g_ = nullptr;  // a direct decision ends any open batch
  return run_decision(g, u, v, t, alpha, /*sweep0_from_tree=*/false);
}

LbcResult LbcSolver::decide_weighted(const Graph& g, VertexId u, VertexId v,
                                     Weight budget, std::uint32_t alpha) {
  batch_g_ = nullptr;  // a direct decision ends any open batch
  FTSPAN_REQUIRE(u < g.n() && v < g.n(), "LBC terminal out of range");
  FTSPAN_REQUIRE(u != v, "LBC terminals must be distinct");
  FTSPAN_REQUIRE(budget > 0, "weighted LBC requires a positive budget");
  return run_sweeps(g, alpha,
                    [&](std::uint32_t i, const FaultView& cut,
                        std::vector<PathStep>& path) {
                      const obs::ScopedSpan span("sweep", "weighted", "target",
                                                 v, "sweep", i);
                      c_sweep_dedicated.add();
                      return dijkstra_.shortest_path_arcs(g, u, v, path, cut,
                                                          budget);
                    });
}

void LbcSolver::begin_batch(const Graph& g, VertexId u,
                            std::span<const VertexId> targets,
                            std::uint32_t t) {
  FTSPAN_REQUIRE(u < g.n(), "LBC terminal out of range");
  FTSPAN_REQUIRE(t >= 1, "LBC requires t >= 1");
  FTSPAN_REQUIRE(!targets.empty(), "LBC batch must have at least one target");
  batch_g_ = &g;
  batch_u_ = u;
  batch_t_ = t;
  batch_m_ = g.m();
  batch_targets_.assign(targets.begin(), targets.end());
  batch_served_ = false;
  const obs::ScopedSpan span("tree", "begin", "source", u, "targets",
                             targets.size());
  bfs_.tree_begin(g, u, batch_targets_, FaultView{}, t);
  ++trees_built_;
  c_tree_sessions.add();
}

LbcResult LbcSolver::decide_batched(std::size_t index, std::uint32_t alpha) {
  FTSPAN_REQUIRE(alpha == 0,
                 "batched LBC decisions are alpha = 0 only (alpha >= 1 "
                 "searches every sweep from both ends: use decide)");
  FTSPAN_REQUIRE(batch_g_ != nullptr, "no open LBC batch");
  FTSPAN_REQUIRE(index < batch_targets_.size(), "LBC batch index out of range");
  FTSPAN_REQUIRE(batch_g_->m() == batch_m_,
                 "graph mutated during an LBC batch (re-begin_batch first)");
  return run_decision(*batch_g_, batch_u_, batch_targets_[index], batch_t_,
                      alpha, /*sweep0_from_tree=*/true);
}

void LbcSolver::extend_batch_after_accept(VertexId v, EdgeId via_edge) {
  FTSPAN_REQUIRE(batch_g_ != nullptr, "no open LBC batch");
  FTSPAN_REQUIRE(batch_g_->m() == batch_m_ + 1,
                 "extend_batch_after_accept expects exactly one appended edge");
  batch_m_ = batch_g_->m();
  obs::ScopedSpan span("graft", "insert_source_arc", "target", v);
  const std::size_t wave = bfs_.tree_insert_source_arc(v, via_edge);
  span.end_args("wave", wave);
  ++tree_extends_;
  c_tree_grafts.add();
  g_graft_wave.update(wave);
}

LbcResult LbcSolver::run_decision(const Graph& g, VertexId u, VertexId v,
                                  std::uint32_t t, std::uint32_t alpha,
                                  bool sweep0_from_tree) {
  FTSPAN_REQUIRE(u < g.n() && v < g.n(), "LBC terminal out of range");
  FTSPAN_REQUIRE(u != v, "LBC terminals must be distinct");
  FTSPAN_REQUIRE(t >= 1, "LBC requires t >= 1");
  return run_sweeps(g, alpha, [&](std::uint32_t i, const FaultView& cut,
                                  std::vector<PathStep>& path) {
    if (sweep0_from_tree) {
      // The one sweep of a batched alpha-0 decision: resume the shared
      // terminal tree just far enough to settle v.
      const obs::ScopedSpan span("sweep", "tree_served", "target", v);
      ++batched_sweeps_;
      if (batch_served_) ++tree_reuse_hits_;
      batch_served_ = true;
      c_sweep_tree.add();
      if (bfs_.tree_next(v) > t) return false;
      bfs_.path_arcs_to(v, path);
      return true;
    }
    const obs::ScopedSpan span("sweep", "dedicated", "target", v, "sweep", i);
    c_sweep_dedicated.add();
    const ArcIndex before = bfs_.arcs_scanned();
    // With a cut to build (alpha >= 1) every sweep searches from both ends:
    // Theorem 4 needs only that each found path has at most t hops and
    // avoids the cut so far, and two balls of radius about t/2 are far
    // smaller than one of radius t.  The lone sweep of alpha = 0 stays
    // one-ended, the search the shared tree reproduces.
    const bool found =
        alpha == 0
            ? bfs_.shortest_path_arcs(g, u, v, path, cut, t)
            : bfs_.two_ended_path_arcs(g, u, v, path, cut, t) != kUnreachableHops;
    if (i > 0) {
      ++dedicated_masked_sweeps_;
      dedicated_masked_arcs_ += bfs_.arcs_scanned() - before;
    }
    return found;
  });
}

void LbcSolver::write_stats(SpannerBuildStats& stats) const noexcept {
  stats.search_sweeps = total_sweeps_;
  stats.batched_sweeps = batched_sweeps_;
  stats.tree_reuse_hits = tree_reuse_hits();
  stats.tree_extends = tree_extends_;
  stats.arcs_traversed = arcs_scanned();
  stats.arena_bytes = arena_bytes();
  stats.dedicated_masked_arcs = dedicated_masked_arcs_;
  stats.dedicated_masked_sweeps = dedicated_masked_sweeps_;
}

LbcResult lbc_decide(const Graph& g, VertexId u, VertexId v, std::uint32_t t,
                     std::uint32_t alpha, FaultModel model) {
  LbcSolver solver(model);
  return solver.decide(g, u, v, t, alpha);
}

void lbc_scan(const Graph& g, std::span<const EdgeId> order, const Graph& h,
              LbcSolver& lbc, std::uint32_t t, std::uint32_t alpha,
              const std::function<bool(LbcResult, EdgeId)>& commit) {
  std::vector<VertexId> targets;
  std::size_t i = 0;
  while (i < order.size()) {
    const Edge& first = g.edge(order[i]);
    std::size_t j = i + 1;
    if (alpha == 0)  // terminal batch: the maximal same-source run
      while (j < order.size() && g.edge(order[j]).u == first.u) ++j;
    if (j - i == 1) {  // plain decision
      commit(lbc.decide(h, first.u, first.v, t, alpha), order[i]);
      ++i;
      continue;
    }
    // One shared tree serves the whole run: an accept grafts the new edge
    // into it in place, which keeps every later distance answer exact.
    targets.clear();
    for (std::size_t p = i; p < j; ++p) targets.push_back(g.edge(order[p]).v);
    lbc.begin_batch(h, first.u, targets, t);
    for (const std::size_t base = i; i < j; ++i)
      if (commit(lbc.decide_batched(i - base, alpha), order[i]) &&
          i + 1 < j)  // nothing left to answer: skip the graft
        lbc.extend_batch_after_accept(g.edge(order[i]).v,
                                      static_cast<EdgeId>(h.m() - 1));
  }
}

}  // namespace ftspan
