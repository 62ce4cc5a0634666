// Result type returned by the spanner construction algorithms.

#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace ftspan {

/// Instrumentation counters collected while building a spanner.
struct SpannerBuildStats {
  /// Spanned-or-not decisions made (one per scanned edge): LBC runs for the
  /// modified greedy, fault-set searches for the exact greedy.
  std::uint64_t oracle_calls = 0;
  /// Individual BFS/Dijkstra sweeps performed inside those decisions.
  std::uint64_t search_sweeps = 0;
  /// Wall-clock construction time.
  double seconds = 0.0;
  /// Always 0.  Counted the searches saved by sharing one terminal BFS tree
  /// across the alpha-0 decisions out of one vertex, which measured slower
  /// than one search from both ends per decision on every benchmarked f = 0
  /// input and was removed.  The field remains because the perfbench
  /// harness reads it by name.
  std::uint64_t tree_reuse_hits = 0;
  /// Always 0.  Counted masked sweeps served by in-place repair of the
  /// shared terminal tree, which measured slower than the dedicated masked
  /// BFS on every benchmarked input and was removed; every masked sweep is
  /// now a dedicated one (dedicated_masked_sweeps).  The field remains
  /// because the perfbench harness reads it by name.
  std::uint64_t masked_reuse_hits = 0;
  /// Adjacency arcs scanned across every search the build ran: the measured
  /// work term of the paper's O(f^{1-1/k} n^{1/k} m) runtime — the E16 scale
  /// bench's arcs-traversed column.
  std::uint64_t arcs_traversed = 0;
  /// Bytes held by the search arenas at build end (slab-quantized runner
  /// state, cut masks, path buffers).
  std::uint64_t arena_bytes = 0;
  /// Always 0.  Counted the arcs the removed masked-tree repair scanned (see
  /// masked_reuse_hits); kept for the same by-name reader.
  std::uint64_t repair_cost_arcs = 0;
  /// Arcs scanned by the masked sweeps (>= 1) of LBC hop decisions, each a
  /// t-hop search from both ends under the decision's cut.  Subset of
  /// arcs_traversed.
  std::uint64_t dedicated_masked_arcs = 0;
  /// Number of sweeps metered by dedicated_masked_arcs.
  std::uint64_t dedicated_masked_sweeps = 0;
  /// Exponential fault-set searches actually run.  Algorithm 1 pays one per
  /// scanned edge; the BDPVW hybrid (src/spanner/bdpvw_vft.h) pays one only
  /// for decisions its LBC prefilter could not settle, so this is the
  /// hybrid's headline meter.  0 for the pure-oracle engines.
  std::uint64_t exact_searches = 0;
  /// Branch-and-bound nodes those searches visited
  /// (FaultSetSearch::nodes_visited); the exponential part of the work.
  std::uint64_t exact_search_nodes = 0;
};

/// A constructed spanner H together with provenance and instrumentation.
struct SpannerBuild {
  /// The spanner H: same vertex set as G, subset of G's edges.
  Graph spanner;
  /// Ids (into the input graph) of the selected edges, in acceptance order.
  std::vector<EdgeId> picked;
  /// When certificate recording was requested: for each accepted edge, the
  /// fault set F_e that witnessed "not yet spanned" at insertion time
  /// (vertex ids are global; edge ids refer to H, whose ids are stable).
  /// Feeds the Lemma 6 blocking-set analysis.  Aligned with `picked`.
  std::vector<FaultSet> certificates;
  SpannerBuildStats stats;
};

/// The paper's size bound for the modified greedy (Theorem 8) without its
/// hidden constant: k * f^(1-1/k) * n^(1+1/k).  With f == 0 this degenerates
/// to the non-fault-tolerant greedy bound n^(1+1/k) (f is clamped to 1).
[[nodiscard]] inline double theorem8_size_bound(std::size_t n, std::uint32_t k,
                                                std::uint32_t f) noexcept {
  const double kk = k;
  const double ff = f == 0 ? 1.0 : f;
  const double nn = static_cast<double>(n);
  return kk * std::pow(ff, 1.0 - 1.0 / kk) * std::pow(nn, 1.0 + 1.0 / kk);
}

}  // namespace ftspan
