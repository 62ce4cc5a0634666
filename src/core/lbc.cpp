#include "core/lbc.h"

#include <algorithm>

#include "obs/obs.h"
#include "util/check.h"

namespace ftspan {

namespace {

const obs::Counter c_sweep_tree("sweep.tree_served");
const obs::Counter c_sweep_dedicated("sweep.dedicated");
const obs::Counter c_tree_sessions("tree.sessions");
const obs::Counter c_tree_grafts("tree.grafts");
const obs::Gauge g_graft_wave("graft.wave.max");

/// Upper bound on one terminal batch (see lbc_scan).
constexpr std::size_t kMaxTerminalBatch = 512;

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
  const obs::ScopedSpan span("tree", "begin", "source", u, "targets",
                             targets.size());
  tree_bfs_.tree_begin(g, u, batch_targets_, FaultView{}, t);
  ++trees_built_;
  c_tree_sessions.add();
}

LbcResult LbcSolver::decide_batched(std::size_t index, std::uint32_t alpha) {
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
  const std::size_t wave = tree_bfs_.tree_insert_source_arc(v, via_edge);
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
    if (i == 0 && sweep0_from_tree) {
      // Sweep 0 of a batched decision: resume the shared terminal tree just
      // far enough to settle v.
      const obs::ScopedSpan span("sweep", "tree_served", "target", v);
      ++batched_sweeps_;
      c_sweep_tree.add();
      if (tree_bfs_.tree_next(v) > t) return false;
      tree_bfs_.path_arcs_to(v, path);
      return true;
    }
    const obs::ScopedSpan span("sweep", "dedicated", "target", v, "sweep", i);
    c_sweep_dedicated.add();
    const ArcIndex before = bfs_.arcs_scanned();
    const bool found = bfs_.shortest_path_arcs(g, u, v, path, cut, t);
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
  // With alpha == 0 an accept leaves the shared tree exhausted and the new
  // edge graftable in place (extend_batch_after_accept), so runs never
  // re-begin and the cap would only split trees for nothing: lift it.
  const bool graft_accepts = alpha == 0;
  const std::size_t cap = graft_accepts ? order.size() : kMaxTerminalBatch;
  std::vector<VertexId> targets;
  std::size_t i = 0;
  while (i < order.size()) {
    // Terminal batch: a maximal run of consecutive candidates out of the
    // same vertex, capped.
    const VertexId shared_u = g.edge(order[i]).u;
    const std::size_t end = i + std::min(cap, order.size() - i);
    std::size_t j = i + 1;
    while (j < end && g.edge(order[j]).u == shared_u) ++j;
    while (j - i > 1) {
      // One shared tree serves the run until a decision accepts; accepting
      // grows h, so the remaining targets re-begin against the new h —
      // exactly the decision a per-edge scan would have made there.  With
      // alpha == 0 the accepted edge is grafted into the tree instead
      // (bit-identical decisions, since an alpha-0 decision consumes only
      // the distance answer).
      targets.clear();
      for (std::size_t p = i; p < j; ++p) targets.push_back(g.edge(order[p]).v);
      lbc.begin_batch(h, shared_u, targets, t);
      const std::size_t base = i;
      for (; i < j; ++i)
        if (commit(lbc.decide_batched(i - base, alpha), order[i])) {
          if (graft_accepts) {
            if (i + 1 < j)  // nothing left to answer: skip the graft
              lbc.extend_batch_after_accept(
                  g.edge(order[i]).v, static_cast<EdgeId>(h.m() - 1));
            continue;
          }
          ++i;
          break;
        }
    }
    if (j - i == 1) {  // singleton run or batch remainder: plain decision
      const auto& e = g.edge(order[i]);
      commit(lbc.decide(h, e.u, e.v, t, alpha), order[i]);
      ++i;
    }
  }
}

}  // namespace ftspan
