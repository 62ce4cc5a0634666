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

  /// Fewest-hop s-t path searched from both ends: each round expands one
  /// whole BFS level of the side whose frontier holds fewer vertices, and
  /// the first arc that reaches the other side closes the path.  Both
  /// sides' balls are complete up to their last level when that happens, so
  /// no shorter path can exist.  Under a hop bound the search answers
  /// unreachable once the two expanded depths sum to `max_hops` (sides that
  /// have not met by then are more than that far apart), and its last
  /// allowed round only looks for meeting arcs, stamping nothing.  Writes
  /// the path in shortest_path_arcs' format and returns its hop count, which
  /// equals hop_distance(g, s, t, faults, max_hops)'s; among equally short
  /// paths it may pick another one.  Returns kUnreachableHops (out
  /// untouched) when t is unreachable within `max_hops`.
  std::uint32_t two_ended_path_arcs(const Graph& g, VertexId s, VertexId t,
                                    std::vector<PathStep>& out,
                                    const FaultView& faults = {},
                                    std::uint32_t max_hops = kUnreachableHops);

  /// Hop distances from s to every vertex (kUnreachableHops when
  /// unreachable), written into `out` (resized to g.n()).
  void all_hops(const Graph& g, VertexId s, std::vector<std::uint32_t>& out,
                const FaultView& faults = {},
                std::uint32_t max_hops = kUnreachableHops);

  /// Arcs scanned by search expansions on this runner, cumulative over its
  /// lifetime: every adjacency-row entry read while expanding a vertex.
  /// This is the work term of the paper's O(f^{1-1/k} n^{1/k} m) bound
  /// measured directly — the E16 bench's arcs-traversed column.
  [[nodiscard]] ArcIndex arcs_scanned() const noexcept { return arcs_scanned_; }

  /// Bytes currently held by this runner's per-vertex state and queues
  /// (capacities, i.e. what the allocator actually granted).
  [[nodiscard]] std::size_t arena_bytes() const noexcept;

 private:
  // Per-vertex search state, struct-of-arrays (see the header comment):
  // stamp_ is the hot dup-check array; dist_/parent_/parent_arc_ are written
  // once per discovery and read only during answer/path extraction.

  /// Runs BFS from s; stops early once t is settled.  Returns dist(t).
  std::uint32_t run(const Graph& g, VertexId s, VertexId t,
                    const FaultView& faults, std::uint32_t max_hops);
  /// Extracts the (vertex, edge-id) path from the source of the last run to
  /// `v`, which it must have reached.
  void path_arcs_to(VertexId v, std::vector<PathStep>& out) const;
  // The search loops carry a 64-byte alignment, so where their
  // compare-and-branch pairs fall need not depend on the code linked before
  // them: unaligned, a 16-byte shift of unrelated code split one such pair
  // across a line and slowed the verifier's search loop by 20%.  The
  // attribute only holds for an instantiation the compiler emits out of
  // line.  GCC 12 inlines run_impl<false, false> into run and most
  // two_ended_impl instantiations into two_ended_path_arcs, where their
  // loops float with the caller (nm -C on search.cpp.o lists which stayed
  // out of line).
  template <bool kCheckVertices, bool kCheckEdges>
  [[gnu::aligned(64)]] std::uint32_t run_impl(const Graph& g, VertexId s,
                                              VertexId t,
                                              const FaultView& faults,
                                              std::uint32_t max_hops);
  // kBounded is false for the unbounded searches routes run, so their
  // instantiations carry no hop-bound code at all.
  template <bool kCheckVertices, bool kCheckEdges, bool kBounded>
  [[gnu::aligned(64)]] std::uint32_t two_ended_impl(
      const Graph& g, FaultView faults, std::uint32_t max_hops,
      std::vector<PathStep>& out);
  void ensure(std::size_t n);
  /// Starts a search with `stamps` fresh stamp values, epoch_ the last.
  void begin_epoch(std::uint32_t stamps = 1);

  /// Vertex-universe capacity the state arrays are sized for.
  [[nodiscard]] std::size_t capacity() const noexcept { return stamp_.size(); }

  std::vector<std::uint32_t> dist_;
  std::vector<std::uint32_t> stamp_;
  std::vector<VertexId> parent_;
  std::vector<EdgeId> parent_arc_;
  std::vector<VertexId> queue_;
  std::vector<VertexId> iqueue_;  ///< the t side of a two-ended search
  std::uint32_t epoch_ = 0;
  ArcIndex arcs_scanned_ = 0;
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
