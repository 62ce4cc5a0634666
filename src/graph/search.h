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

/// Answer for one target of a terminal-tree session (BfsRunner::tree_begin /
/// BfsRunner::tree_next).
struct BfsTreeAnswer {
  /// Hop distance from the session source (kUnreachableHops when the target
  /// is beyond max_hops, unreachable, or failed).
  std::uint32_t dist = kUnreachableHops;
  /// Length of the last_visited() prefix a dedicated single-target search
  /// for this target would have *expanded* — the exact per-target read set,
  /// so traces built from a shared tree stay bit-identical to unbatched ones.
  std::size_t expanded_prefix = 0;
};

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

  /// Vertices discovered (stamped) by the most recent search, in BFS order.
  /// Valid until the next search on this runner.
  [[nodiscard]] std::span<const VertexId> last_visited() const noexcept {
    return queue_;
  }

  /// Prefix of last_visited() that was *expanded* (popped and its arc row
  /// scanned).  This is the exact read set of the search on the graph's
  /// adjacency: a replay after appending edges whose endpoints all lie
  /// outside this set performs the identical computation — the invalidation
  /// test of the speculative greedy engine (src/exec/).
  [[nodiscard]] std::span<const VertexId> last_expanded() const noexcept {
    return {queue_.data(), expanded_count_};
  }

  /// Arcs scanned by search expansions on this runner, cumulative over its
  /// lifetime: every adjacency-row entry read while expanding a vertex in a
  /// plain search or a terminal-tree session.  This is the work term of the
  /// paper's O(f^{1-1/k} n^{1/k} m) bound measured directly — the E16
  /// bench's arcs-traversed column.
  [[nodiscard]] ArcIndex arcs_scanned() const noexcept { return arcs_scanned_; }

  /// Bytes currently held by this runner's per-vertex state, queue, and
  /// repair buffers (capacities, i.e. what the allocator actually granted).
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
  // Answers are bit-identical to single-target searches: same distances,
  // same parent arcs (extract with path_arcs_to), and expanded_prefix is the
  // exact expansion count of the equivalent early-terminated search.
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
  /// target set), expanding the tree no further than v's own single-target
  /// search would have.  Idempotent: repeated calls return the same answer.
  BfsTreeAnswer tree_next(VertexId v);

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
  /// dist chains, so path_arcs_to never breaks) but are no longer the lex-min
  /// chains a dedicated search would pick, and queue order / expanded_prefix
  /// / last_visited are not updated for the improved region.  Callers that
  /// consume only the distance answers — LBC(t, 0) decisions, which build no
  /// cut and record no trace — get bit-identical results at a fraction of a
  /// full re-expansion; anything reading paths, traces, or repair state must
  /// re-begin the session instead (LbcSolver gates this on alpha == 0).
  ///
  /// Requires: an open session whose expansion is exhausted (the accepting
  /// unreachable answer guarantees this), and v not yet reached by it.
  /// Returns the graft wave size: vertices whose distance the improvement
  /// BFS touched (0 when the source or target is failed).
  std::size_t tree_insert_source_arc(VertexId v, EdgeId via_edge);

  // --- incremental repair under a growing cut (masked-tree LBC) -----------
  //
  // Once a session's tree is complete, it can survive cut growth: instead of
  // re-running a dedicated BFS for every masked sweep of an LBC decision,
  // tree_repair_cut() repairs the shared tree in place and the masked
  // queries read the repaired structure.  The repaired answers are
  // bit-identical to a dedicated masked BFS because the discovery-order BFS
  // tree has an order-free characterization: every vertex's tree path is the
  // shortest path whose sequence of adjacency-row indices is
  // lexicographically minimal ("lex-min"), and under a growing mask the only
  // vertices whose lex-min chain can change are the tree descendants of the
  // newly cut elements (masking never creates paths, so no surviving chain
  // can be beaten by a new one).  Repair therefore:
  // splits in two:
  //   1. distances repair EAGERLY (Even-Shiloach): starting from the
  //      dependents of the newly cut elements, a vertex keeps its level iff
  //      some alive arc still reaches a vertex one level up, else it sinks
  //      level by level (its own dependents re-checked), falling off the
  //      tree past max_hops — no tournaments, touch set proportional to the
  //      vertices whose distance actually changes;
  //   2. parent arcs repair LAZILY (repair_resolve): sigma monotonicity
  //      means an intact stored chain is still lex-min, so only the chains a
  //      query actually reads (the reported path, trace-order comparisons)
  //      are validated in O(depth), and only genuinely broken ones re-run
  //      the lex-min tournament one level up.
  // Every overlay write is logged so tree_rollback() restores the clean
  // tree in O(log size) for the next decision of the batch.  All repair
  // state lives beside the session (the search arrays themselves are never
  // touched), so pending tree_next answers are unaffected.

  /// Expands the open session to exhaustion (the full <= max_hops ball).
  /// Every pending target is answered exactly as an explicit tree_next
  /// would have answered it; later tree_next calls just read the memo.
  void tree_complete();

  /// Applies one cut increment to the (completed) tree of the open session:
  /// `vertices` leave the graph entirely (vertex fault model), `edges` are
  /// the newly failed edge ids (edge model), and `cut` must view the FULL
  /// accumulated cut (used for arc-alive checks while re-attaching).
  /// Requires a session with finite max_hops; completes the tree on first
  /// use.  Repairs accumulate until tree_rollback().  Returns the repair
  /// wave size: vertices whose distance this increment changed.
  std::size_t tree_repair_cut(std::span<const VertexId> vertices,
                              std::span<const EdgeId> edges,
                              const FaultView& cut);

  /// Masked hop distance of `v` in the repaired tree: bit-identical to what
  /// a dedicated BFS under the accumulated cut would report (cut and
  /// beyond-max_hops vertices report kUnreachableHops).
  [[nodiscard]] std::uint32_t tree_masked_dist(VertexId v) const;

  /// Lex-min masked shortest path to `v` (which must satisfy
  /// tree_masked_dist(v) <= max_hops), bit-identical to
  /// shortest_path_arcs under the accumulated cut.  Resolves the chain
  /// lazily (hence non-const).
  void tree_masked_path_arcs(VertexId v, std::vector<PathStep>& out);

  /// True when the repaired chain of `x` precedes the repaired chain of `v`
  /// in dedicated-BFS discovery order (both at the same masked depth): the
  /// lexicographic sigma comparison that reconstructs exact per-sweep read
  /// sets without replaying the BFS.  Resolves both chains lazily.
  [[nodiscard]] bool tree_masked_before(VertexId x, VertexId v);

  /// Undoes every tree_repair_cut since the last rollback, restoring the
  /// clean shared tree (cost proportional to the repairs performed).
  void tree_rollback();

  /// Cut increments applied via tree_repair_cut (instrumentation).
  [[nodiscard]] std::uint64_t tree_repairs() const noexcept {
    return repair_count_;
  }

  /// Adjacency arcs scanned by the masked-tree repair machinery, cumulative:
  /// seed/support/sink scans of tree_repair_cut plus lazy repair_resolve
  /// tournaments, at the same row granularity as arcs_scanned() (which does
  /// NOT include these — repair work is the *alternative* to dedicated
  /// masked sweeps, so it is metered separately; the ratio of the two is the
  /// adaptive-masking heuristic's decision variable).
  [[nodiscard]] ArcIndex repair_arcs() const noexcept { return repair_arcs_; }


  /// Pre-sizes the per-vertex state — including the terminal-tree session
  /// arrays — for graphs with up to `n` vertices, so the first search or
  /// session allocates nothing (per-thread arena warm-up).  The reservation
  /// is quantized to kStateSlabVertices.  Runners that never open sessions
  /// can skip reserve(); the session arrays also grow lazily in tree_begin.
  void reserve(std::size_t n) {
    ensure(n);
    ensure_session_arrays();
    ensure_repair_arrays();
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
  BfsTreeAnswer tree_next_impl(VertexId v);
  void ensure(std::size_t n);
  void ensure_session_arrays();
  void ensure_repair_arrays();
  void begin_epoch();

  /// Vertex-universe capacity the state arrays are sized for.
  [[nodiscard]] std::size_t capacity() const noexcept { return stamp_.size(); }

  // --- repair internals ---
  /// One logged write: repair_arrays()[array][index] held `value`.
  struct RepairLogEntry {
    std::uint8_t array;
    VertexId index;
    std::uint32_t value;
  };
  std::vector<std::uint32_t>& repair_array(std::uint8_t id);
  void repair_init();
  void repair_set(std::uint8_t array, VertexId index, std::uint32_t value);
  void repair_enqueue(VertexId w);
  void repair_resolve(VertexId w);
  bool sigma_less(VertexId a, VertexId b) const;

  std::vector<std::uint32_t> dist_;
  std::vector<std::uint32_t> stamp_;
  std::vector<VertexId> parent_;
  std::vector<EdgeId> parent_arc_;
  std::vector<VertexId> queue_;
  std::vector<VertexId> iqueue_;  ///< tree_insert_source_arc work queue
  std::size_t expanded_count_ = 0;
  std::uint32_t epoch_ = 0;
  ArcIndex arcs_scanned_ = 0;
  ArcIndex repair_arcs_ = 0;

  // Terminal-tree session state (valid while tree_epoch_ == epoch_).
  const Graph* tree_g_ = nullptr;
  FaultView tree_faults_;
  std::uint32_t tree_max_hops_ = 0;
  std::uint32_t tree_epoch_ = 0;
  std::size_t tree_head_ = 0;            ///< next queue position to pop
  std::vector<std::uint32_t> tmark_;     ///< epoch-stamped: pending target
  std::vector<std::uint32_t> amark_;     ///< epoch-stamped: answered target
  std::vector<std::size_t> tpos_;        ///< answered target's expanded_prefix
  std::vector<std::uint32_t> pidx_;      ///< discovery row index (clean tree)

  // Masked-tree repair state (valid while repair_ready_ for this session).
  // rdist_/rpar_/redge_/rpidx_ mirror the clean tree at repair_init and are
  // mutated (with logging) by distance repairs and lazy chain resolution;
  // fstamp_ memoizes resolution per repair state (fserial_ bumps on every
  // repair and rollback) while mstamp_ marks re-picked links per decision
  // (mserial_ bumps on rollback), so stale marks die without a sweep.
  bool repair_ready_ = false;
  bool repair_dirty_ = false;
  std::uint64_t repair_count_ = 0;
  FaultView repair_cut_;  ///< the accumulated cut, for lazy resolution
  std::vector<std::uint32_t> rdist_, rpar_, redge_, rpidx_;
  std::vector<std::uint32_t> rqueued_;  ///< in-queue dedup stamps
  std::uint32_t rqueue_stamp_ = 0;
  std::vector<std::uint32_t> fstamp_;  ///< chain resolved at this fserial_
  std::uint32_t fserial_ = 0;
  std::vector<std::uint32_t> mstamp_;  ///< link re-picked at this mserial_
  std::uint32_t mserial_ = 0;          ///< bumps per decision (rollback)
  std::vector<RepairLogEntry> rlog_;
  std::vector<std::vector<VertexId>> rbuckets_;   ///< per-level work queues
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
