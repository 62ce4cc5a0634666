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
#include <functional>
#include <span>
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
/// Hop budgets (BFS), weight budgets (Dijkstra) and the shared terminal
/// tree of a batched sweep 0 all plug in here.
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

  /// Decides LBC(t, alpha) for terminals u, v on g.
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
  /// which calls it with budget = alpha * w(e) + beta.  Not batched: every
  /// weighted sweep runs a dedicated budget-pruned Dijkstra.
  /// Requires u != v, both in range, budget > 0.
  LbcResult decide_weighted(const Graph& g, VertexId u, VertexId v,
                            Weight budget, std::uint32_t alpha);

  // --- terminal-batched decisions -----------------------------------------
  //
  // The modified greedy issues runs of decisions that share their first
  // terminal u (consecutive scan edges out of the same vertex).  Every such
  // decision runs its sweep 0 against the SAME spanner H with the SAME empty
  // cut, so one lazily-expanded BFS tree from u (BfsRunner::tree_begin)
  // answers all of them: decision j only advances the shared expansion as
  // far as its own single-target search would have, and any later decision
  // whose target already settled gets its sweep 0 for free.  Sweeps >= 1
  // accumulate a per-decision cut and run a dedicated masked BFS each.
  //
  // Results, certificates, and sweep counts are bit-identical to calling
  // decide() for each pair — enforced by tests/lbc_batch_test.cpp.  The
  // caller must not mutate g between begin_batch and the last
  // decide_batched; accepting an edge therefore ends the batch (lbc_scan
  // re-begins on the remaining targets).

  /// Opens a batch of decisions (u, targets[j]) on g.  O(|targets|); the
  /// shared tree expands lazily inside decide_batched.
  void begin_batch(const Graph& g, VertexId u,
                   std::span<const VertexId> targets, std::uint32_t t);

  /// Decides LBC(t, alpha) for (u, targets[index]) of the open batch.
  /// Bit-identical to decide(g, u, targets[index], t, alpha).
  LbcResult decide_batched(std::size_t index, std::uint32_t alpha);

  /// Continues the open batch across an accepted edge — alpha == 0 only.
  /// The caller has just appended edge (u, v) to the batch graph (v the
  /// accepted target, `via_edge` its id there); instead of re-beginning, the
  /// shared tree is grafted in place (BfsRunner::tree_insert_source_arc), so
  /// the remaining decide_batched calls skip the full re-expansion an accept
  /// used to cost.  Valid only for alpha == 0 decisions: the graft maintains
  /// exact distances but not the paths sweeps >= 1 read.  Decisions stay
  /// bit-identical to re-beginning (pinned by tests/lbc_batch_test.cpp and
  /// the f=0 differential suite).
  void extend_batch_after_accept(VertexId v, EdgeId via_edge);

  /// Total BFS sweeps across all decisions (instrumentation).
  [[nodiscard]] std::uint64_t total_sweeps() const noexcept {
    return total_sweeps_;
  }

  /// Terminal-tree sessions opened (instrumentation).
  [[nodiscard]] std::uint64_t trees_built() const noexcept {
    return trees_built_;
  }

  /// Sweep-0 decisions answered through a shared terminal tree
  /// (instrumentation; each still counts 1 in total_sweeps()).
  [[nodiscard]] std::uint64_t batched_sweeps() const noexcept {
    return batched_sweeps_;
  }

  /// Dedicated sweep-0 BFS runs saved by tree sharing: batched decisions
  /// beyond the first of each tree session.
  [[nodiscard]] std::uint64_t tree_reuse_hits() const noexcept {
    return batched_sweeps_ - trees_built_;
  }

  /// Accepts survived in place by grafting the new edge into the shared
  /// tree (extend_batch_after_accept) — each one is a full tree rebuild
  /// eliminated (instrumentation).
  [[nodiscard]] std::uint64_t tree_extends() const noexcept {
    return tree_extends_;
  }

  /// Arcs scanned by the masked sweeps (>= 1) of hop decisions, cumulative.
  /// Subset of arcs_scanned().
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
    return bfs_.arcs_scanned() + tree_bfs_.arcs_scanned() +
           dijkstra_.arcs_scanned();
  }

  /// Bytes held by this solver's search workspace: the runners' slab
  /// arenas plus the cut masks and the path buffer — the source of
  /// SpannerBuildStats::arena_bytes.
  [[nodiscard]] std::size_t arena_bytes() const noexcept {
    return bfs_.arena_bytes() + tree_bfs_.arena_bytes() +
           dijkstra_.arena_bytes() + vertex_cut_.bytes().size() +
           edge_cut_.bytes().size() + path_.capacity() * sizeof(PathStep);
  }

  /// Copies this solver's meters into a build's stats: search_sweeps,
  /// batched_sweeps, tree_reuse_hits, tree_extends, arcs_traversed,
  /// arena_bytes, and the dedicated masked-sweep pair.
  void write_stats(SpannerBuildStats& stats) const noexcept;

 private:
  LbcResult run_decision(const Graph& g, VertexId u, VertexId v,
                         std::uint32_t t, std::uint32_t alpha,
                         bool sweep0_from_tree);
  /// Runs lbc_sweeps against this solver's cut masks.  `sweep(i, cut, path)`
  /// searches under `cut`, which is empty for sweep 0 (nothing is cut yet,
  /// so the runners take their no-mask specialization) and the accumulated
  /// cut afterwards.
  template <class Sweep>
  LbcResult run_sweeps(const Graph& g, std::uint32_t alpha, Sweep&& sweep);

  FaultModel model_;
  BfsRunner bfs_;
  BfsRunner tree_bfs_;  ///< holds the shared tree; bfs_ serves sweeps >= 1
  DijkstraRunner dijkstra_;  ///< serves decide_weighted sweeps only
  ScratchMask vertex_cut_;
  ScratchMask edge_cut_;
  std::vector<PathStep> path_;
  std::uint64_t total_sweeps_ = 0;
  std::uint64_t trees_built_ = 0;
  std::uint64_t batched_sweeps_ = 0;
  std::uint64_t tree_extends_ = 0;
  std::uint64_t dedicated_masked_sweeps_ = 0;
  ArcIndex dedicated_masked_arcs_ = 0;

  // Open batch (valid until the next begin_batch / decide on this solver).
  const Graph* batch_g_ = nullptr;
  std::vector<VertexId> batch_targets_;
  VertexId batch_u_ = kInvalidVertex;
  std::uint32_t batch_t_ = 0;
  std::size_t batch_m_ = 0;  ///< g.m() at begin_batch, to catch mutation
};

/// One-shot convenience wrapper around LbcSolver::decide.
[[nodiscard]] LbcResult lbc_decide(const Graph& g, VertexId u, VertexId v,
                                   std::uint32_t t, std::uint32_t alpha,
                                   FaultModel model = FaultModel::vertex);

/// The terminal-batched greedy scan, shared by the LBC-driven builders
/// (modified_greedy_spanner and the BDPVW prefilter): decides LBC(t, alpha)
/// for each edge of g in `order` against the growing spanner h, and hands
/// every decision to `commit(decision, id)`, which returns true when it
/// appended edge `id` to h (and must append nothing otherwise).
///
/// Consecutive candidates out of the same vertex form a terminal batch
/// answered through one shared tree (LbcSolver::begin_batch), capped at
/// 512 candidates so re-marking the remaining targets after an accept stays
/// amortized O(1) per decision on huge-degree hubs.  An accept grows h, so
/// the rest of the run re-begins against the new h — except at alpha == 0,
/// where the accepted edge is grafted into the tree in place and the cap is
/// lifted.  Every decision is bit-identical to LbcSolver::decide on the h of
/// its scan position (tests/lbc_batch_test.cpp).
void lbc_scan(const Graph& g, std::span<const EdgeId> order, const Graph& h,
              LbcSolver& lbc, std::uint32_t t, std::uint32_t alpha,
              const std::function<bool(LbcResult, EdgeId)>& commit);

}  // namespace ftspan
