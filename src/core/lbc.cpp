#include "core/lbc.h"

#include "obs/obs.h"
#include "util/check.h"

namespace ftspan {

namespace {

const obs::Counter c_sweep_dedicated("sweep.dedicated");

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
  FTSPAN_REQUIRE(u < g.n() && v < g.n(), "LBC terminal out of range");
  FTSPAN_REQUIRE(u != v, "LBC terminals must be distinct");
  FTSPAN_REQUIRE(t >= 1, "LBC requires t >= 1");
  return run_sweeps(g, alpha, [&](std::uint32_t i, const FaultView& cut,
                                  std::vector<PathStep>& path) {
    const obs::ScopedSpan span("sweep", "dedicated", "target", v, "sweep", i);
    c_sweep_dedicated.add();
    const ArcIndex before = bfs_.arcs_scanned();
    // Theorem 4 needs only that each found path has at most t hops and
    // avoids the cut so far, and two balls of radius about t/2 are far
    // smaller than one of radius t.
    const bool found =
        bfs_.two_ended_path_arcs(g, u, v, path, cut, t) != kUnreachableHops;
    if (i > 0) {
      ++dedicated_masked_sweeps_;
      dedicated_masked_arcs_ += bfs_.arcs_scanned() - before;
    }
    return found;
  });
}

LbcResult LbcSolver::decide_weighted(const Graph& g, VertexId u, VertexId v,
                                     Weight budget, std::uint32_t alpha) {
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

void LbcSolver::write_stats(SpannerBuildStats& stats) const noexcept {
  stats.search_sweeps = total_sweeps_;
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

}  // namespace ftspan
