// Undirected simple graph on a flat CSR (compressed sparse row) adjacency.
//
// Layout: one shared arc array plus a per-vertex row descriptor
// {offset, degree, capacity}.  A vertex's arcs live contiguously at
// [offset, offset + degree), so neighbors() is a single cache-linear slice
// of one big buffer — the substrate the Θ(m·f) BFS/Dijkstra sweeps of the
// greedy spanner algorithms run on.
//
// Rebuild policy (incremental appends stay amortized O(1)):
//   * append into the row's spare capacity when there is any;
//   * on row overflow, relocate just that row to the end of the arc array
//     with doubled capacity (cost O(degree), amortized O(1) per append),
//     leaving a dead hole behind;
//   * when dead holes exceed half the arc array, compact: rewrite all rows
//     in vertex order with a little slack each.  Compaction cost is O(n + m)
//     and is amortized against the Ω(n + m) appends/relocations that created
//     the holes, and it restores a fully vertex-ordered layout for searches.
//
// The vertex set is fixed at construction; edges can be appended, which is
// exactly the mutation pattern of every spanner algorithm in this library
// (they grow a subgraph H of a fixed G edge by edge).  Simplicity rules:
// no self-loops, no parallel edges.  add_edge enforces both by scanning the
// smaller endpoint row — O(min degree), which on the sparse graphs this
// library targets is a handful of comparisons against arcs that are already
// in cache, and frees the ~40 bytes/edge a hash edge index would pin at
// million-vertex scale (the index was the single largest allocation of the
// old layout at n = 2^20, m = 16M).
//
// 64-bit id policy (see ArcIndex in graph/types.h): vertex and edge ids are
// 32-bit, but row offsets and every other arc-array index are 64-bit — the
// arc array is 2m entries plus relocation slack and crosses 2^32 while edge
// ids are still in range.

#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/types.h"

namespace ftspan {

/// Undirected simple graph; optionally weighted.
///
/// Invariants: ids are dense (vertices 0..n-1, edges 0..m-1 in insertion
/// order), every edge appears once in `edges()` and twice in the adjacency
/// structure, and unweighted graphs hold weight 1.0 on every edge.
class Graph {
 public:
  /// Creates an empty (no-vertex) unweighted graph.
  Graph() = default;

  /// Creates `n` isolated vertices.  `weighted` fixes whether add_edge
  /// accepts weights other than 1.
  explicit Graph(std::size_t n, bool weighted = false);

  /// Builds a graph from an edge list.  Throws on loops/duplicates/range.
  /// Bulk path: counting-sort CSR construction in O(n + m) with exact-fit
  /// rows (no per-row slack, no relocation holes), so a static million-edge
  /// graph occupies exactly 2m arcs.  Arc order within each row equals the
  /// add_edge insertion order, so the result is indistinguishable from m
  /// individual add_edge calls.
  static Graph from_edges(std::size_t n, std::span<const Edge> edges,
                          bool weighted = false);

  /// The subgraph of `g` on the same vertex set that keeps the edges whose
  /// `mask` byte is 0 (mask.size() == g.m()), renumbered densely in id
  /// order.  Equal to from_edges over the kept edge list — same edge ids,
  /// same arc order in every row, exact-fit rows — in O(n + m): a subgraph
  /// of a simple graph is simple, so the duplicate sort is skipped.
  static Graph from_unmasked(const Graph& g, std::span<const std::uint8_t> mask);

  /// Throws std::invalid_argument unless {u,v} with weight w may join a
  /// graph on n vertices: endpoints in range, u != v, w finite and >= 0,
  /// and w == 1 when the graph is unweighted.  add_edge and from_edges check
  /// every edge with it; a parser calls it per row to name the bad line.
  static void validate_edge(std::size_t n, VertexId u, VertexId v, Weight w,
                            bool weighted);

  [[nodiscard]] std::size_t n() const noexcept { return rows_.size(); }
  [[nodiscard]] std::size_t m() const noexcept { return edges_.size(); }
  [[nodiscard]] bool weighted() const noexcept { return weighted_; }

  /// Appends edge {u,v} with weight w and returns its id.
  /// Throws if u==v, an endpoint is out of range, {u,v} already exists, the
  /// weight is negative/non-finite, or w != 1 on an unweighted graph.
  EdgeId add_edge(VertexId u, VertexId v, Weight w = 1.0);

  /// add_edge, but returns the existing id (ignoring w) when {u,v} is
  /// already present.  Used to build unions of subgraphs.
  EdgeId ensure_edge(VertexId u, VertexId v, Weight w = 1.0);

  /// True if the edge {u,v} exists (order-insensitive).
  [[nodiscard]] bool has_edge(VertexId u, VertexId v) const;

  /// Id of edge {u,v}, if present.  O(min degree) row scan; cold-path
  /// convenience — hot paths should carry edge ids (see PathStep).
  [[nodiscard]] std::optional<EdgeId> find_edge(VertexId u, VertexId v) const;

  /// The edge with the given id.
  [[nodiscard]] const Edge& edge(EdgeId id) const;

  /// All edges in insertion order.
  [[nodiscard]] std::span<const Edge> edges() const noexcept { return edges_; }

  /// Arcs leaving `v` (one per incident edge), in insertion order.
  /// The span is invalidated by ANY subsequent add_edge/ensure_edge — even
  /// for unrelated vertices — because an append may relocate rows or compact
  /// the shared arc array.  Re-fetch after every mutation.
  [[nodiscard]] std::span<const Arc> neighbors(VertexId v) const;

  [[nodiscard]] std::size_t degree(VertexId v) const;

  /// Maximum degree over all vertices (0 for the empty graph).
  [[nodiscard]] std::size_t max_degree() const noexcept;

  /// Sum of all edge weights.
  [[nodiscard]] Weight total_weight() const noexcept;

  /// Reserves storage for `m` edges in total (not beyond the current m()).
  void reserve_edges(std::size_t m);

  /// Bytes held by the adjacency structure (arc array incl. dead holes and
  /// spare capacity, row table, edge list) — the graph's share of a bench's
  /// peak-RSS column, and the number the bulk from_edges path minimizes.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

  /// "n=.. m=.. (un)weighted" — for logs and test failure messages.
  [[nodiscard]] std::string summary() const;

 private:
  /// CSR row descriptor: arcs of vertex v live at
  /// arcs_[offset .. offset + deg), with cap - deg spare slots behind them.
  /// The offset is an ArcIndex, not a 32-bit id: the arc array is 2m plus
  /// slack and outgrows 32-bit indexing long before edge ids do.
  struct Row {
    ArcIndex offset = 0;
    std::uint32_t deg = 0;
    std::uint32_t cap = 0;
  };
  static_assert(sizeof(Row) == 16, "row descriptor should stay two words");

  /// True if v's row contains an arc to `other` (O(deg) scan).
  [[nodiscard]] bool row_has_arc(VertexId v, VertexId other) const noexcept;

  /// Appends one arc to v's row, relocating/compacting per the policy above.
  void append_arc(VertexId v, const Arc& arc);

  /// Moves v's row to the end of arcs_ with capacity `new_cap`.
  void relocate_row(VertexId v, std::uint32_t new_cap);

  /// Rewrites all rows in vertex order, dropping dead holes.
  void compact();

  /// Lays out exact-fit rows for edges_ on an edgeless row table.
  void build_rows();

  std::vector<Row> rows_;
  std::vector<Arc> arcs_;
  ArcIndex dead_arcs_ = 0;  ///< hole space abandoned by relocations
  std::vector<Edge> edges_;
  bool weighted_ = false;
};

}  // namespace ftspan
