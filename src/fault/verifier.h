// Fault-tolerant spanner verification oracle.
//
// Checks Definition 1: H is an f-FT t-spanner of G iff for every fault set F
// (|F| <= f) and surviving pair, d_{H\F} <= t * d_{G\F}.  By Lemma 3 it
// suffices to check pairs {u,v} in E(G); we check every surviving G-edge
// against t * d_{G\F}(u,v), which is equivalent.
//
// A fault set is checked source by source: each G-edge belongs to its stored
// endpoint e.u, and one search from u answers all of u's surviving edges
// (see check_fault_set).  The H-side search stops at t * d_{G\F}, so a pair
// that violates the bound reads as d_{H\F} = infinity, i.e. infinite
// stretch, whether or not H\F still connects it.
//
// Exhaustive verification enumerates all C(n, <= f) fault sets (feasible for
// small instances; it is the ground truth in tests).  Sampled verification
// draws fault sets from a mix of random and adversarial strategies (attack.h)
// and scales to benchmark-sized graphs.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/options.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace ftspan {

/// One observed stretch violation (or the worst observed pair).
struct StretchWitness {
  FaultSet faults;
  VertexId u = kInvalidVertex;
  VertexId v = kInvalidVertex;
  Weight d_g = 0.0;  ///< d_{G\F}(u,v)
  /// d_{H\F}(u,v) when it is at most t * d_g; kUnreachableWeight otherwise,
  /// i.e. for every violating pair, not only for pairs H\F disconnects.
  Weight d_h = 0.0;
};

/// Verification outcome.
struct StretchReport {
  /// True iff every checked pair has d_{H\F} <= t * d_{G\F}.
  bool ok = true;
  /// Maximum observed d_{H\F}/d_{G\F} over all checked pairs.  Infinity
  /// exactly when some pair violates the bound (see StretchWitness::d_h), so
  /// a finite value is at most t and ok == !isinf(max_stretch).
  double max_stretch = 0.0;
  /// The pair and fault set realizing max_stretch: the first such pair in
  /// fault-set order, then edge-id order.
  StretchWitness worst;
  std::uint64_t fault_sets_checked = 0;
  std::uint64_t pairs_checked = 0;
  /// Sampled trials that drew no usable fault set and were skipped instead
  /// of counted: the universe was too small for the requested size (see
  /// attack.h's size contract), or the trial's requested size was 0 (the
  /// empty set is always checked once, up front).  Always 0 for
  /// verify_exhaustive / check_fault_set.
  std::uint64_t trials_skipped = 0;
};

/// Exhaustively verifies that `h` is an f-FT (2k-1)-spanner of `g`
/// (all fault sets of size <= f): C(n, <= f) check_fault_set calls
/// (C(m, <= f) under edge faults) — exponential in f; use on small instances
/// (it is the ground truth in tests).  Requires h.n() == g.n().
[[nodiscard]] StretchReport verify_exhaustive(const Graph& g, const Graph& h,
                                              const SpannerParams& params);

/// Verifies against `trials` sampled fault sets drawn from a mix of random
/// and adversarial strategies.  A failure is a counterexample; success is
/// evidence, not proof.
///
/// Definition 1 quantifies over |F| <= f, and stretch is NOT monotone in F
/// (adding a fault can disconnect or skip the witness pair), so trial i
/// requests size f - (i mod (f+1)): every size in [0, f] is exercised, not
/// just the full budget.  Size-0 requests are skipped (the empty set is
/// always checked once, up front), as are trials whose universe is too
/// small for the requested size (attack.h may return fewer faults than
/// asked); both are tallied in StretchReport::trials_skipped rather than
/// counted as full-strength coverage.
///
/// Trials are independent, so `exec.threads` > 1 (or 0 = auto) fans them
/// over the shared worker pool (exec::shared_pool()): fault sets are drawn
/// from `rng` sequentially up front and per-trial reports are folded in
/// trial order, so the report — including the worst witness — is
/// bit-identical at any thread count.  trials + 1 check_fault_set calls of
/// work either way.
[[nodiscard]] StretchReport verify_sampled(const Graph& g, const Graph& h,
                                           const SpannerParams& params,
                                           std::uint32_t trials, Rng& rng,
                                           const ExecPolicy& exec = {});

/// The storm core shared by verify_sampled and the scenario layer
/// (fault/scenario.h): checks every fault set in `sets` against all
/// surviving G-edges and folds the per-set reports in order, so the result
/// — including the worst witness — is bit-identical at any `exec` thread
/// count.  When `per_set` is not null it receives each set's individual
/// report (aligned with `sets`), which is how the attack benches compute
/// per-trial stretch percentiles.  |sets| check_fault_set calls of work.
[[nodiscard]] StretchReport verify_fault_sets(
    const Graph& g, const Graph& h, const SpannerParams& params,
    std::span<const FaultSet> sets, const ExecPolicy& exec = {},
    std::vector<StretchReport>* per_set = nullptr);

/// Checks one specific fault set: max stretch over surviving G-edges
/// (Lemma 3 reduction).  Each surviving edge belongs to its stored endpoint
/// e.u, and one search per source answers all of that source's edges:
///  * unweighted g and h: one BFS terminal-tree session in H\F limited to t
///    hops (a surviving edge of a simple unweighted graph has d_{G\F} = 1,
///    so G is not searched);
///  * otherwise: one multi-target Dijkstra in G\F with budget max w over the
///    source's edges, then one in H\F with budget t * max d_{G\F}, each
///    stopping once its last target settles.
/// A fault set thus costs at most one search per source on each searched
/// side, each confined to the ball its source's pairs need.  A per-pair d_{H\F} beyond t * d_{G\F} is clamped to
/// kUnreachableWeight and max-stretch ties go to the smallest edge id, so
/// the report is the one a per-edge check in edge-id order produces.
/// `faults.model` must match sizes of g/h (vertex ids < n, edge ids < m of
/// g -- edge faults are mapped to h via endpoint lookup).
[[nodiscard]] StretchReport check_fault_set(const Graph& g, const Graph& h,
                                            const SpannerParams& params,
                                            const FaultSet& faults);

}  // namespace ftspan
