// The optimal vertex-fault-tolerant spanner of Bodwin, Dinitz, Parter, and
// Vassilevska Williams (arXiv:1710.03164) — "BDPVW" — as a *hybrid* of the
// exponential FT greedy and the paper's LBC oracle.
//
// Guarantee: BDPVW prove that the greedy which scans edges by nondecreasing
// weight and adds {u,v} iff some fault set F with |F| <= f leaves
// d_{H\F}(u,v) > (2k-1) * w(u,v) builds an f-VFT (2k-1)-spanner of the
// optimal size O(f^{1-1/k} n^{1+1/k}) (their Theorem 1.6; [BP19] closed the
// last k-dependence).  The decision itself is NP-hard (Length-Bounded Cut),
// which is why the source paper replaces it with Algorithm 2 — but the two
// compose: run LBC(2k-1, f) first and fall back to the exponential search
// only on the decisions the oracle cannot settle.
//   * LBC answers NO  -> by Theorem 4 no length-t cut of size <= f exists,
//     so every |F| <= f leaves a <= t-hop path: certified spanned, reject.
//   * LBC answers YES with an accumulated cut of size <= f -> that cut is
//     itself a witnessing fault set (interior vertices only): accept.
//   * Otherwise (YES with an oversized cut) the branch-and-bound search
//     (FaultSetSearch) decides exactly.
// The hybrid's picks are therefore edge-for-edge identical to
// exact_greedy_spanner — same predicate, same scan order — which
// tests/zoo_test.cpp pins differentially; stats.exact_searches counts how
// many decisions actually paid the exponential price.
//
// Fault-model support: FaultModel::vertex only (the BDPVW analysis samples
// vertices; edge-model inputs throw std::invalid_argument, like dk11).
// f = 0 degenerates to the non-FT greedy and is decided entirely by the
// filter.  Weighted inputs disable the hop filter (a hop-bounded cut says
// nothing about the weighted threshold t * w) and run the pure exponential
// scan, exactly like exact_greedy_spanner.
//
// Determinism contract: sequential scan, nondecreasing weight with ties by
// edge id; the LBC prefilter runs the modified greedy's scan (lbc_scan in
// core/lbc.h), and the filter changes who answers a decision, never the
// answer.  Which paths its sweeps find can change the size of a YES cut, and
// so how many decisions reach the exact search, but not the picks.

#pragma once

#include "core/options.h"
#include "core/result.h"
#include "graph/graph.h"

namespace ftspan {

/// Knobs for the BDPVW hybrid greedy.
struct BdpvwConfig {
  /// Run the LBC(2k-1, f) prefilter before the exponential search
  /// (unweighted inputs only).  Off = the pure Algorithm 1 scan; picks are
  /// identical either way (A/B switch for benchmarks and the differential
  /// tests — only stats.exact_searches moves).
  bool lbc_filter = true;
  /// Record the witnessing fault set of every accepted edge into
  /// SpannerBuild::certificates.  Filter-accepted edges store the LBC cut,
  /// search-accepted edges the branch-and-bound witness — both are valid
  /// Lemma 6 certificates, but they can differ from the ones
  /// exact_greedy_spanner records (the *picks* never do).
  bool record_certificates = false;
};

/// Builds the optimal-size f-VFT (2k-1)-spanner by the BDPVW greedy.
/// Worst-case exponential in f (the fallback searches); the prefilter keeps
/// the exponential work to the few genuinely ambiguous decisions.  Requires
/// params.model == FaultModel::vertex.
[[nodiscard]] SpannerBuild bdpvw_vft_spanner(const Graph& g,
                                             const SpannerParams& params,
                                             const BdpvwConfig& config = {});

}  // namespace ftspan
