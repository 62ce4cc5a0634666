// Shortest-path engines with fault masking.
//
// Both runners keep epoch-stamped per-vertex state, so repeated queries on
// graphs with the same vertex count cost no O(n) re-initialization — the
// greedy spanner algorithms issue Θ(m·f) of these queries on a growing
// subgraph H, which makes this the hottest code in the library.
//
// BFS state is struct-of-arrays: dist/stamp/parent/parent-arc live in four
// parallel arrays instead of one 16-byte record.  The per-arc duplicate
// check (`stamp[to] == epoch`) dominates the inner loop and touches ONLY the
// stamp array, which SoA packs 4× denser (16 stamps per cache line instead
// of 4) — at million-vertex scale the stamp array of a 2^20-vertex graph is
// 4 MiB and lives mostly in L2, where the interleaved record layout spilled
// every search to DRAM.  dist/parent/parent-arc are only written on
// discovery (once per vertex), so splitting them off costs nothing.
// Dijkstra keeps its 24-byte record: its inner loop reads dist and stamp
// together on every relaxation, so the record *is* the hot set there.
//
// Per-vertex buffers grow in slabs (kStateSlabVertices) from a high-water
// mark and are never shrunk: a runner serving graphs of slightly different
// sizes re-reserves nothing, and all runners of a thread pool land on the
// same allocation size classes.  arena_bytes() reports the total footprint —
// the per-runner source of truth behind the E16 bench's allocations column.
//
// Searches track parent *arcs*, not just parent vertices: the *_arcs path
// overloads return (vertex, edge-id) steps, so callers that need the edges
// of a path (cut accumulation, fault branching, congestion accounting) get
// them for free instead of re-resolving every hop with Graph::find_edge.
//
// A runner is bound to a vertex-universe size, not to a particular graph:
// the same runner may serve G and any subgraph H of G.

#pragma once

#include <span>
#include <vector>

#include "graph/fault_mask.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace ftspan {

/// Non-owning view describing which vertices/edges are currently failed.
/// Empty spans mean "nothing failed"; an edge id beyond the span is alive
/// (the spanner H grows between queries, masks need not be resized).
struct FaultView {
  std::span<const std::uint8_t> failed_vertices = {};
  std::span<const std::uint8_t> failed_edges = {};

  [[nodiscard]] bool vertex_alive(VertexId v) const noexcept {
    return v >= failed_vertices.size() || failed_vertices[v] == 0;
  }
  [[nodiscard]] bool edge_alive(EdgeId e) const noexcept {
    return e >= failed_edges.size() || failed_edges[e] == 0;
  }
};

/// Builds a FaultView over a Mask / ScratchMask pair (either may be null).
[[nodiscard]] FaultView make_fault_view(const Mask* vertices, const Mask* edges);

/// Per-vertex state buffers grow in slabs of this many vertices (a 4096
/// vertex slab is 16 KiB per uint32 array): reservations for nearby
/// universe sizes coalesce onto identical allocation size classes, and
/// growth is from the high-water mark, never per search.
inline constexpr std::size_t kStateSlabVertices = 4096;

/// Rounds a vertex count up to slab granularity.
[[nodiscard]] constexpr std::size_t slab_round_up(std::size_t n) noexcept {
  return (n + kStateSlabVertices - 1) / kStateSlabVertices * kStateSlabVertices;
}

/// Breadth-first search: hop (edge-count) distances, ignoring weights.
class BfsRunner {
 public:
  /// Prepares buffers for graphs with up to `n` vertices (grows on demand).
  explicit BfsRunner(std::size_t n = 0);

  /// Fewest-hop distance from s to t in g under `faults`, exploring at most
  /// `max_hops` hops.  Returns kUnreachableHops when no such path exists
  /// (including when s or t is failed).  s == t yields 0.
  std::uint32_t hop_distance(const Graph& g, VertexId s, VertexId t,
                             const FaultView& faults = {},
                             std::uint32_t max_hops = kUnreachableHops);

  /// Extracts a fewest-hop s-t path (vertex sequence s, ..., t) into `out`.
  /// Returns false (out untouched) when t is unreachable within `max_hops`.
  bool shortest_path(const Graph& g, VertexId s, VertexId t,
                     std::vector<VertexId>& out, const FaultView& faults = {},
                     std::uint32_t max_hops = kUnreachableHops);

  /// shortest_path, but as (vertex, edge-id) steps: out.front() == {s,
  /// kInvalidEdge} and each later step names the edge it arrived over.
  bool shortest_path_arcs(const Graph& g, VertexId s, VertexId t,
                          std::vector<PathStep>& out,
                          const FaultView& faults = {},
                          std::uint32_t max_hops = kUnreachableHops);

  /// Hop distances from s to every vertex (kUnreachableHops when
  /// unreachable), written into `out` (resized to g.n()).
  void all_hops(const Graph& g, VertexId s, std::vector<std::uint32_t>& out,
                const FaultView& faults = {},
                std::uint32_t max_hops = kUnreachableHops);

  /// Arcs scanned by search expansions on this runner, cumulative over its
  /// lifetime: every adjacency-row entry read while expanding a vertex in a
  /// plain search or a terminal-tree session.  This is the work term of the
  /// paper's O(f^{1-1/k} n^{1/k} m) bound measured directly — the E16
  /// bench's arcs-traversed column.
  [[nodiscard]] ArcIndex arcs_scanned() const noexcept { return arcs_scanned_; }

  /// Bytes currently held by this runner's per-vertex state and queues
  /// (capacities, i.e. what the allocator actually granted).
  [[nodiscard]] std::size_t arena_bytes() const noexcept;

  // --- terminal-tree sessions (terminal-batched LBC, src/core/lbc.h) ---
  //
  // A session is a lazily-expanded BFS tree from one source that answers
  // several target queries against the SAME graph snapshot.  tree_begin
  // marks the target set and enqueues the source; each tree_next(v) resumes
  // the expansion only until v is answered, so one query costs exactly what
  // a dedicated single-target search would, and every further query against
  // the already-expanded region is free.  Frontier pruning generalizes to
  // the target set: at depth max_hops only pending targets are stamped.
  //
  // Answers are bit-identical to single-target searches: same distances and
  // same parent arcs (extract with path_arcs_to).
  //
  // The session is bound to the runner's current epoch: any other search on
  // this runner ends it (tree_next then throws).  The graph and fault view
  // must not change for the lifetime of the session.

  /// Opens a session from `s` over `targets`.  O(|targets|): no expansion
  /// happens until the first tree_next.  `faults` must outlive the session.
  void tree_begin(const Graph& g, VertexId s, std::span<const VertexId> targets,
                  const FaultView& faults = {},
                  std::uint32_t max_hops = kUnreachableHops);

  /// Answers one target of the open session (v must be in the tree_begin
  /// target set) with its hop distance from the session source —
  /// kUnreachableHops when the target is beyond max_hops, unreachable, or
  /// failed — expanding the tree no further than v's own single-target
  /// search would have.  Idempotent: repeated calls return the same answer.
  std::uint32_t tree_next(VertexId v);

  /// Extracts the (vertex, edge-id) path from the source of the most recent
  /// search (or session) to `v`, which must have been reached by it.  Same
  /// format as shortest_path_arcs; does not re-run anything.
  void path_arcs_to(VertexId v, std::vector<PathStep>& out) const;

  /// Grafts a just-appended graph edge (source, v) into the EXHAUSTED tree of
  /// the open session instead of discarding it: v enters at depth 1 and a
  /// distance-improvement BFS propagates through the strictly improved
  /// region, answering any pending targets it reaches.  After the graft the
  /// session keeps answering tree_next queries with distances that are exact
  /// for the grown graph.
  ///
  /// This is a DISTANCE-ONLY overlay: parent arcs stay valid (consistent
  /// dist chains, so path_arcs_to never breaks) but are no longer the chains
  /// a dedicated search would pick.  Callers that consume only the distance
  /// answers — LBC(t, 0) decisions, which build no cut — get bit-identical
  /// results at a fraction of a full re-expansion; anything reading paths
  /// must re-begin the session instead (LbcSolver gates this on alpha == 0).
  ///
  /// Requires: an open session whose expansion is exhausted (the accepting
  /// unreachable answer guarantees this), and v not yet reached by it.
  /// Returns the graft wave size: vertices whose distance the improvement
  /// BFS touched (0 when the source or target is failed).
  std::size_t tree_insert_source_arc(VertexId v, EdgeId via_edge);

  /// Pre-sizes the per-vertex state — including the terminal-tree session
  /// arrays — for graphs with up to `n` vertices, so the first search or
  /// session allocates nothing.  The reservation is quantized to
  /// kStateSlabVertices.  Runners that never open sessions can skip
  /// reserve(); the session arrays also grow lazily in tree_begin.
  void reserve(std::size_t n) {
    ensure(n);
    ensure_session_arrays();
  }

 private:
  // Per-vertex search state, struct-of-arrays (see the header comment):
  // stamp_ is the hot dup-check array; dist_/parent_/parent_arc_ are written
  // once per discovery and read only during answer/path extraction.

  /// Runs BFS from s; stops early once t is settled.  Returns dist(t).
  std::uint32_t run(const Graph& g, VertexId s, VertexId t,
                    const FaultView& faults, std::uint32_t max_hops);
  template <bool kCheckVertices, bool kCheckEdges>
  std::uint32_t run_impl(const Graph& g, VertexId s, VertexId t,
                         const FaultView& faults, std::uint32_t max_hops);
  template <bool kCheckVertices, bool kCheckEdges>
  std::uint32_t tree_next_impl(VertexId v);
  void ensure(std::size_t n);
  void ensure_session_arrays();
  void begin_epoch();

  /// Vertex-universe capacity the state arrays are sized for.
  [[nodiscard]] std::size_t capacity() const noexcept { return stamp_.size(); }

  std::vector<std::uint32_t> dist_;
  std::vector<std::uint32_t> stamp_;
  std::vector<VertexId> parent_;
  std::vector<EdgeId> parent_arc_;
  std::vector<VertexId> queue_;
  std::vector<VertexId> iqueue_;  ///< tree_insert_source_arc work queue
  std::uint32_t epoch_ = 0;
  ArcIndex arcs_scanned_ = 0;

  // Terminal-tree session state (valid while tree_epoch_ == epoch_).
  const Graph* tree_g_ = nullptr;
  FaultView tree_faults_;
  std::uint32_t tree_max_hops_ = 0;
  std::uint32_t tree_epoch_ = 0;
  std::size_t tree_head_ = 0;            ///< next queue position to pop
  std::vector<std::uint32_t> tmark_;     ///< epoch-stamped: pending target
  std::vector<std::uint32_t> amark_;     ///< epoch-stamped: answered target
};

/// Dijkstra: weighted distances (also correct on unweighted graphs).
class DijkstraRunner {
 public:
  explicit DijkstraRunner(std::size_t n = 0);

  /// Least-weight s-t distance under `faults`; exploration is pruned beyond
  /// `budget` (distances > budget report kUnreachableWeight).
  Weight distance(const Graph& g, VertexId s, VertexId t,
                  const FaultView& faults = {},
                  Weight budget = kUnreachableWeight);

  /// distance() for every vertex of `targets` at once, written into `out`
  /// (aligned with `targets`).  One search answers them all and stops as
  /// soon as the last live target settles, so it costs what the farthest
  /// target's own search would.  A settled distance does not depend on the
  /// budget or on which targets stopped the search, so each answer is
  /// bit-identical to distance(g, s, t, faults, budget) for that target.
  void distances(const Graph& g, VertexId s, std::span<const VertexId> targets,
                 std::vector<Weight>& out, const FaultView& faults = {},
                 Weight budget = kUnreachableWeight);

  /// Extracts a least-weight s-t path into `out`; false when unreachable
  /// within `budget`.
  bool shortest_path(const Graph& g, VertexId s, VertexId t,
                     std::vector<VertexId>& out, const FaultView& faults = {},
                     Weight budget = kUnreachableWeight);

  /// shortest_path as (vertex, edge-id) steps; see
  /// BfsRunner::shortest_path_arcs.
  bool shortest_path_arcs(const Graph& g, VertexId s, VertexId t,
                          std::vector<PathStep>& out,
                          const FaultView& faults = {},
                          Weight budget = kUnreachableWeight);

  /// Distances from s to all vertices into `out` (resized to g.n()).
  void all_distances(const Graph& g, VertexId s, std::vector<Weight>& out,
                     const FaultView& faults = {},
                     Weight budget = kUnreachableWeight);

  /// Arcs relaxed, cumulative; see BfsRunner::arcs_scanned.
  [[nodiscard]] ArcIndex arcs_scanned() const noexcept { return arcs_scanned_; }

  /// Bytes held by the per-vertex state and the reused heap buffer.
  [[nodiscard]] std::size_t arena_bytes() const noexcept;

 private:
  /// Per-vertex search state packed into one record (24 bytes): unlike BFS,
  /// every Dijkstra relaxation reads dist and stamp *together* (the decrease
  /// test), so the record is the hot set and splitting it would double the
  /// cache lines touched per relaxation.
  struct Node {
    Weight dist = 0.0;
    VertexId parent = kInvalidVertex;
    EdgeId parent_arc = kInvalidEdge;
    std::uint32_t stamp = 0;
    std::uint8_t settled = 0;
  };

  /// The one heap loop behind every query: settles vertices in distance
  /// order from s, pruned beyond `budget`, until every live vertex of
  /// `targets` has settled (an empty target set runs to exhaustion).
  void run(const Graph& g, VertexId s, std::span<const VertexId> targets,
           const FaultView& faults, Weight budget);
  /// Distance of `v` if the last search settled it, else kUnreachableWeight.
  [[nodiscard]] Weight settled_distance(VertexId v) const noexcept;
  void ensure(std::size_t n);
  void begin_epoch();

  std::vector<Node> node_;
  std::vector<std::uint32_t> tmark_;  ///< epoch-stamped: pending target
  /// Reused min-heap buffer: std::push_heap/std::pop_heap over this vector
  /// is exactly what std::priority_queue does, minus the per-search
  /// construction/destruction of the container — identical pop order, zero
  /// per-call allocation once at the high-water mark.
  std::vector<std::pair<Weight, VertexId>> heap_;
  std::uint32_t epoch_ = 0;
  ArcIndex arcs_scanned_ = 0;
};

}  // namespace ftspan
