// Algorithm 2: the gap decision procedure LBC(t, alpha) for
// Length-Bounded Cut (Section 3.1 of the paper).
//
// Given terminals u, v, repeat alpha + 1 times: find a u-v path of at most t
// hops avoiding the cut built so far; if none exists answer YES, otherwise
// add the path's interior vertices (vertex model) or its edges (edge model)
// to the cut.  Guarantees (Theorem 4):
//   * a length-t cut of size <= alpha exists        => YES,
//   * every length-t cut has size   > alpha * t     => NO,
// in O((m + n) * alpha) time.  On YES the accumulated cut is itself a valid
// length-t cut of size <= alpha * (t - 1) (vertex model; <= alpha * t for
// edges) — the certificate F_e used by Lemma 6.

#pragma once

#include <cstdint>
#include <vector>

#include "core/result.h"
#include "graph/fault_mask.h"
#include "graph/search.h"
#include "graph/types.h"

namespace ftspan {

/// Outcome of one LBC(t, alpha) decision.
struct LbcResult {
  /// YES: the accumulated `cut` kills every u-v path of <= t hops.
  bool yes = false;
  /// The accumulated fault set (valid length-t cut iff `yes`).
  FaultSet cut;
  /// Number of BFS sweeps performed (<= alpha + 1).
  std::uint32_t sweeps = 0;
};

/// Answer and sweep count of one run of lbc_sweeps.
struct LbcSweeps {
  bool yes = false;
  std::uint32_t sweeps = 0;
};

/// Algorithm 2's sweep loop, the one copy every LBC decision runs: at most
/// alpha + 1 sweeps; a sweep that finds no path answers YES; every found
/// path is cut before the next sweep — its interior vertices in the vertex
/// model (u and v are never cut), every edge in the edge model.
///
/// The caller says how one sweep finds a path under its current cut:
/// `find(i, path)` fills `path` with a (vertex, edge-id) u-v path for sweep
/// i and returns false when none exists.  `cut_vertex(x)` / `cut_edge(e)`
/// add one element to the caller's cut, which the next `find` must honor.
/// Any path of at most the budget that avoids the cut so far will do —
/// Theorem 4's YES and NO sides use nothing else about it — so hop budgets
/// (a BFS from both ends) and weight budgets (Dijkstra) both plug in here.
template <class FindPath, class CutVertex, class CutEdge>
LbcSweeps lbc_sweeps(FaultModel model, std::uint32_t alpha,
                     std::vector<PathStep>& path, FindPath&& find,
                     CutVertex&& cut_vertex, CutEdge&& cut_edge) {
  for (std::uint32_t i = 0; i <= alpha; ++i) {
    if (!find(i, path)) return {true, i + 1};
    if (model == FaultModel::vertex) {
      for (std::size_t j = 1; j + 1 < path.size(); ++j) cut_vertex(path[j].to);
    } else {
      // Every step after the source carries the edge it arrived over.
      for (std::size_t j = 1; j < path.size(); ++j) cut_edge(path[j].edge);
    }
  }
  return {false, alpha + 1};
}

/// Reusable Algorithm 2 engine.  Holds scratch masks and a BFS workspace so
/// the modified greedy can issue Theta(m) decisions without reallocation.
class LbcSolver {
 public:
  explicit LbcSolver(FaultModel model = FaultModel::vertex) noexcept
      : model_(model) {}

  [[nodiscard]] FaultModel model() const noexcept { return model_; }

  /// Decides LBC(t, alpha) for terminals u, v on g.  Every sweep, at every
  /// alpha, is a t-hop search from both ends (BfsRunner::two_ended_path_arcs).
  /// Requires u != v, both in range, t >= 1.
  LbcResult decide(const Graph& g, VertexId u, VertexId v, std::uint32_t t,
                   std::uint32_t alpha);

  /// Algorithm 2 under a *weight* budget instead of a hop budget: sweeps are
  /// Dijkstra searches over the real edge weights, and "short" means total
  /// weight <= budget.  Same loop, same cut accumulation, and the same YES
  /// guarantee — every surviving short path must contain an element of any
  /// blocking cut C, so a sweep consumes at least one new element of C and
  /// |C| <= alpha forces YES within alpha + 1 sweeps (the NO direction stays
  /// one-sided, exactly as in the hop version).  This is the oracle of the
  /// (alpha, beta)-greedy on weighted graphs (src/spanner/alpha_beta.h),
  /// which calls it with budget = alpha * w(e) + beta.  Every weighted sweep
  /// runs a dedicated budget-pruned Dijkstra.
  /// Requires u != v, both in range, budget > 0.
  LbcResult decide_weighted(const Graph& g, VertexId u, VertexId v,
                            Weight budget, std::uint32_t alpha);

  /// Total BFS sweeps across all decisions (instrumentation).
  [[nodiscard]] std::uint64_t total_sweeps() const noexcept {
    return total_sweeps_;
  }

  /// Arcs scanned by the masked sweeps (>= 1) of hop decisions, cumulative;
  /// each such sweep is a search from both ends.  Subset of arcs_scanned().
  [[nodiscard]] ArcIndex dedicated_masked_arcs() const noexcept {
    return dedicated_masked_arcs_;
  }

  /// Number of sweeps metered by dedicated_masked_arcs().
  [[nodiscard]] std::uint64_t dedicated_masked_sweeps() const noexcept {
    return dedicated_masked_sweeps_;
  }

  /// Adjacency arcs scanned by every search this solver ran (all runners,
  /// cumulative) — the measured work term of the O(f^{1-1/k} n^{1/k} m)
  /// bound, aggregated into SpannerBuildStats::arcs_traversed.
  [[nodiscard]] ArcIndex arcs_scanned() const noexcept {
    return bfs_.arcs_scanned() + dijkstra_.arcs_scanned();
  }

  /// Bytes held by this solver's search workspace: the runners' slab
  /// arenas plus the cut masks and the path buffer — the source of
  /// SpannerBuildStats::arena_bytes.
  [[nodiscard]] std::size_t arena_bytes() const noexcept {
    return bfs_.arena_bytes() + dijkstra_.arena_bytes() +
           vertex_cut_.bytes().size() +
           edge_cut_.bytes().size() + path_.capacity() * sizeof(PathStep);
  }

  /// Copies this solver's meters into a build's stats: search_sweeps,
  /// arcs_traversed, arena_bytes, and the dedicated masked-sweep pair.
  void write_stats(SpannerBuildStats& stats) const noexcept;

 private:
  /// Runs lbc_sweeps against this solver's cut masks.  `sweep(i, cut, path)`
  /// searches under `cut`, which is empty for sweep 0 (nothing is cut yet,
  /// so the runners take their no-mask specialization) and the accumulated
  /// cut afterwards.
  template <class Sweep>
  LbcResult run_sweeps(const Graph& g, std::uint32_t alpha, Sweep&& sweep);

  FaultModel model_;
  BfsRunner bfs_;  ///< serves decide sweeps only
  DijkstraRunner dijkstra_;  ///< serves decide_weighted sweeps only
  ScratchMask vertex_cut_;
  ScratchMask edge_cut_;
  std::vector<PathStep> path_;
  std::uint64_t total_sweeps_ = 0;
  std::uint64_t dedicated_masked_sweeps_ = 0;
  ArcIndex dedicated_masked_arcs_ = 0;
};

/// One-shot convenience wrapper around LbcSolver::decide.
[[nodiscard]] LbcResult lbc_decide(const Graph& g, VertexId u, VertexId v,
                                   std::uint32_t t, std::uint32_t alpha,
                                   FaultModel model = FaultModel::vertex);

}  // namespace ftspan
