// Always-on f-FT spanner maintenance under edge churn.
//
// ChurnSpanner owns a live graph G and keeps a subgraph H that is an
// f-fault-tolerant (2k-1)-spanner of G while G absorbs a stream of edge
// insertions and removals.  The maintained invariant is the modified
// greedy's own per-edge condition (Lemma 3 reduces Definition 1 to it):
//
//   every live edge e = {u,v} of G is in H, or H contains f+1 u-v paths
//   within the stretch budget whose interiors (vertex model) / edges (edge
//   model) are pairwise disjoint — so any fault set of size <= f misses at
//   least one of them.
//
// That is exactly the certificate a NO answer of the LBC sweep loop
// (Algorithm 2, src/core/lbc.h) leaves behind, generalized to weighted
// graphs by running the sweeps as budget-pruned Dijkstras with budget
// t * w(e) instead of t-hop BFS.  Composing the per-edge detours along any
// surviving shortest path yields d_{H\F}(u,v) <= t * d_{G\F}(u,v) for every
// pair and every |F| <= f — the verifier's property.
//
// Maintenance per update:
//   * insert e: one LBC decision against the current H (the dynamic analogue
//     of the greedy scan step; with f == 0 this is the single-sweep alpha=0
//     fast path).  YES (a small cut separates the endpoints) => e joins H.
//   * remove e not in H: nothing — H is untouched, and shrinking G only
//     removes demand (other edges' certificates never referenced e).
//   * remove e = {u,v} in H: localized repair.  Any live edge {x,y} whose
//     certificate could have died routed a budget-bounded path through e,
//     so dist_{H'}(x,u) + w(e) + dist_{H'}(v,y) <= t * w(x,y) (up to
//     symmetry) — an Even-Shiloach-style distance wave from u and from v in
//     the post-removal H' lower-bounds every such segment.  Edges passing
//     that filter get their decision re-picked; the ones whose LBC now
//     answers YES are promoted into H.  Everything outside the two distance
//     balls provably kept its certificate and is never re-examined.
//
// Incremental maintenance preserves correctness but not the greedy's size
// bound (churn order is not weight order), so a full modified-greedy
// rebuild remains the correctness-and-quality oracle: the staleness budget
// (updates since the last rebuild) bounds how far the maintained H may
// drift before the service re-anchors it.
//
// The updater searches H itself, as Algorithm 1 runs Algorithm 2 on the
// spanner built so far: it keeps H as its own append-only graph (edges that
// leave H are masked there, edges that rejoin it are unmasked), and every
// decision sweep and repair wave runs on that graph instead of on G with
// the non-H arcs masked.  Only readers search G; the updater reads it for
// edge lookups and the repair candidate scan.
//
// Readers never wait on the updater's work: queries run against an immutable
// Snapshot published epoch by epoch (every publish_every updates, or on
// demand); the updater mutates only its private state and swaps one
// shared_ptr under a lock that is held for nothing but that swap or a
// reader's pointer copy.
//
// Epochs share G instead of copying it each time: a publish copies G only
// when the updater has appended an edge id since the last copy (an insert
// of a pair G has not held since the last rebuild), and a rebuild hands its
// compacted mesh to readers without a copy.  Otherwise a publish copies only
// the two edge masks.  The updater's own G is never shared, so appends never
// write a Graph a reader holds.
//
// Updater methods themselves must be externally serialized (ftspand holds
// one update mutex); snapshot() and readers are safe on any thread.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/modified_greedy.h"
#include "core/options.h"
#include "fault/verifier.h"
#include "graph/graph.h"
#include "graph/search.h"

namespace ftspan::service {

/// Service contract knobs for the maintained spanner.
struct ChurnConfig {
  SpannerParams params;
  /// Updates absorbed since the last full rebuild before the engine
  /// re-anchors itself with a modified-greedy rebuild (0 = never rebuild
  /// automatically; the oracle is still available via rebuild()).
  std::uint32_t rebuild_budget = 4096;
  /// Updates per epoch publish (>= 1).  Readers observe state at most this
  /// many updates old between publishes; flush()/rebuild() publish eagerly.
  std::uint32_t publish_every = 8;
  /// Knobs forwarded to the oracle rebuild.
  ModifiedGreedyConfig rebuild;
};

/// Maintenance counters (updater-thread values; snapshots carry a copy).
struct ChurnStats {
  std::uint64_t inserts = 0;
  std::uint64_t removals = 0;
  std::uint64_t spanner_inserts = 0;    ///< inserts the LBC decision accepted
  std::uint64_t spanner_removals = 0;   ///< removals that hit a spanner edge
  std::uint64_t repair_decisions = 0;   ///< re-picked decisions after removals
  std::uint64_t repair_promotions = 0;  ///< re-picks promoted into H
  std::uint64_t repair_ball_vertices = 0;  ///< distance-wave touch set, summed
  std::uint64_t rebuilds = 0;           ///< full oracle rebuilds (incl. ctor)
  std::uint64_t publishes = 0;
};

struct Route;

/// Immutable epoch state answering reader queries.  `graph` holds every edge
/// the engine has seen since its last rebuild (dead ones included — Graph is
/// append-only); the byte masks carve the live mesh and the spanner out of
/// it as fault views, the representation every search runner consumes
/// natively.  The Graph is shared, not copied: epochs published with no
/// append between them hold the same object, and nothing writes it after
/// publication (the updater appends to its own copy of G).
///
/// Routes may also build the snapshot's own compact H,
/// Graph::from_unmasked(graph, blocked), at most once: when the masked
/// route searches on this snapshot have together scanned 2 * graph.m() arcs,
/// which is what the build itself reads.  Like renting skis until the rent
/// paid equals the price, this never does more than twice the work of the
/// better of never building and building on the first route, and it needs
/// no tuned constant.  The reader whose search crosses the threshold builds
/// H; the others keep searching `graph` meanwhile and never wait.
struct ChurnSnapshot {
  explicit ChurnSnapshot(std::shared_ptr<const Graph> mesh)
      : graph_owner(std::move(mesh)), graph(*graph_owner) {}

  std::uint64_t epoch = 0;
  std::shared_ptr<const Graph> graph_owner;  ///< keeps `graph` alive
  const Graph& graph;                        ///< the mesh G of this epoch
  std::vector<std::uint8_t> dead;     ///< 1 = edge removed from the mesh
  std::vector<std::uint8_t> blocked;  ///< 1 = dead or not in the spanner
  SpannerParams params;
  std::size_t live_m = 0;
  std::size_t spanner_m = 0;
  ChurnStats stats;

  /// View of the live mesh G (dead edges masked).
  [[nodiscard]] FaultView mesh_view() const noexcept {
    return FaultView{{}, dead};
  }
  /// View of the maintained spanner H (dead and unpicked edges masked).
  [[nodiscard]] FaultView spanner_view() const noexcept {
    return FaultView{{}, blocked};
  }

  /// This epoch's spanner H as its own graph (edge ids renumbered), or null
  /// until routes have built it.
  [[nodiscard]] const Graph* compact_spanner() const noexcept {
    return compact_h_.load(std::memory_order_acquire);
  }

 private:
  friend bool snapshot_route(const ChurnSnapshot&, BfsRunner&, DijkstraRunner&,
                             VertexId, VertexId, Route&);

  /// Adds one masked route search's scanned arcs to the rent; the caller
  /// whose charge reaches 2 * graph.m() builds the compact H.
  void charge_masked_route(ArcIndex arcs) const;

  mutable std::atomic<ArcIndex> masked_route_arcs_{0};
  /// Written once, by the building reader, before compact_h_ publishes it.
  mutable std::unique_ptr<const Graph> compact_h_owner_;
  mutable std::atomic<const Graph*> compact_h_{nullptr};
};

/// A route over one snapshot's spanner, in vertices: snapshot_route picks
/// the graph it searches, so no edge id of it leaves the call.
struct Route {
  std::vector<VertexId> path;  ///< u, ..., v; empty when unroutable
  Weight cost = 0.0;           ///< summed edge weights along the path
  [[nodiscard]] std::size_t hops() const noexcept {
    return path.empty() ? 0 : path.size() - 1;
  }
};

/// Outcome of one update as seen by the updater.
struct UpdateResult {
  EdgeId edge = kInvalidEdge;   ///< id in the engine's arc universe
  bool in_spanner = false;      ///< edge is in H after the update
  std::size_t repicked = 0;     ///< decisions promoted by removal repair
  std::uint64_t epoch = 0;      ///< epoch visible to readers afterwards
};

/// Result of an oracle check: the maintained H verified against the live
/// mesh.
struct OracleReport {
  StretchReport report;        ///< verify_sampled of the MAINTAINED spanner
  std::size_t maintained_m = 0;
};

class ChurnSpanner {
 public:
  /// Takes ownership of the initial mesh and runs the first oracle build
  /// (counted in stats().rebuilds) so H starts as the exact greedy spanner.
  ChurnSpanner(Graph initial, ChurnConfig config);

  // --- updater API (externally serialized; never call concurrently) -------

  /// Inserts edge {u,v} (weight w on weighted meshes) and decides whether it
  /// joins H.  Re-inserting a previously removed edge resurrects it (the
  /// weight must match).  Throws std::invalid_argument on a live duplicate,
  /// out-of-range endpoint, self-loop, or changed weight.
  UpdateResult insert(VertexId u, VertexId v, Weight w = 1.0);

  /// Removes edge {u,v} from the mesh; if it was a spanner edge, repairs the
  /// affected decisions (see header comment).  Throws std::invalid_argument
  /// when the edge does not exist or is already removed.
  UpdateResult remove(VertexId u, VertexId v);

  /// Full modified-greedy rebuild on the live mesh — the correctness-and-
  /// quality oracle.  Compacts the arc universe (dead edges are dropped and
  /// edge ids renumber) and publishes a fresh epoch.
  void rebuild();

  /// Publishes the current state as a new epoch immediately.
  std::uint64_t flush();

  // --- oracle / inspection (updater thread, or externally serialized) -----

  /// Materializes the live mesh (edge ids renumber densely).
  [[nodiscard]] Graph live_graph() const;
  /// Materializes the maintained spanner H over the same vertex set.
  [[nodiscard]] Graph spanner_graph() const;

  /// Verifies the MAINTAINED spanner against the live mesh with
  /// verify_sampled.
  OracleReport oracle_check(std::uint32_t trials, Rng& rng,
                            const ExecPolicy& exec = {});

  /// The graph decisions and repair waves search: H under its own edge ids,
  /// with search_view() masking the ids that have left H.  Its unmasked
  /// edges are exactly spanner_graph()'s.
  [[nodiscard]] const Graph& search_graph() const noexcept { return h_; }
  [[nodiscard]] FaultView search_view() const noexcept {
    return FaultView{{}, h_out_};
  }

  [[nodiscard]] const ChurnStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const ChurnConfig& config() const noexcept { return config_; }
  /// Vertex count: fixed at construction, so any thread may read it.
  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  [[nodiscard]] std::size_t live_m() const noexcept { return live_m_; }
  [[nodiscard]] std::size_t spanner_m() const noexcept { return spanner_m_; }
  [[nodiscard]] std::uint64_t updates_since_rebuild() const noexcept {
    return updates_since_rebuild_;
  }

  // --- reader API (any thread) -------------------------------------------

  /// The most recently published epoch state.  Never null.
  [[nodiscard]] std::shared_ptr<const ChurnSnapshot> snapshot() const {
    const std::lock_guard<std::mutex> lock(snap_mu_);
    return snap_;
  }

 private:
  /// The dynamic greedy decision for live edge {u,v}, searched on h_: true
  /// when H already holds f+1 disjoint budget-bounded detours (the edge is
  /// spanned), false when a <= f cut separates them (the edge must join H).
  /// The candidate edge itself must be outside H when this runs.
  bool decide_spanned(VertexId u, VertexId v, Weight w);

  /// Removal repair for spanner edge {u,v} of weight w (already out of H):
  /// re-picks every decision the removal could have broken.
  std::size_t repair_after_spanner_removal(VertexId u, VertexId v, Weight w);

  /// Moves live G edge `id` into H (unmasking its pair in h_, or appending
  /// it when h_ lacks the pair) / out of H (masking its pair in h_).
  void join_h(EdgeId id);
  void leave_h(EdgeId id);
  [[nodiscard]] bool in_h(EdgeId id) const noexcept {
    return blocked_[id] == 0;
  }

  void note_update();
  void publish_locked();
  void adopt_build(Graph live, SpannerBuild build);

  ChurnConfig config_;
  std::size_t n_;                      ///< vertex count, fixed
  Graph g_;  ///< append-only arc universe G; no snapshot references it
  /// The copy of g_ that published epochs share; reset by every append, so
  /// the next publish copies G again.
  std::shared_ptr<const Graph> shared_g_;
  std::vector<std::uint8_t> dead_;
  std::vector<std::uint8_t> blocked_;  ///< 1 = not in H (dead edges never are)
  /// H as its own append-only graph, in G-id order after every rebuild.
  /// A G edge's H id is found by pair (h_.find_edge), like its G id.
  Graph h_;
  std::vector<std::uint8_t> h_out_;  ///< 1 = H id has left H (plus, during a
                                     ///< decision, the sweep's edge cut)
  std::size_t live_m_ = 0;
  std::size_t spanner_m_ = 0;
  /// High-water mark of live edge weights — over-approximating is sound for
  /// the weighted repair ball, so it never shrinks on removals.
  Weight max_live_w_ = 1.0;

  BfsRunner bfs_;
  DijkstraRunner dij_;
  ScratchMask vcut_;                       ///< vertex cut during decisions
  ScratchMask eseen_;                      ///< repair candidate dedup
  std::vector<std::uint32_t> ecut_touched_;  ///< h_out_ ids set by a sweep
  std::vector<PathStep> path_;
  std::vector<EdgeId> candidates_;           ///< repair re-pick worklist
  std::vector<std::uint32_t> du_hops_, dv_hops_;  ///< repair waves (hops)
  std::vector<Weight> du_w_, dv_w_;               ///< repair waves (weights)

  ChurnStats stats_;
  std::uint64_t updates_since_rebuild_ = 0;
  std::uint32_t unpublished_ = 0;
  std::uint64_t epoch_ = 0;
  /// Guards snap_ for one pointer copy or swap, never longer.  A mutex, not
  /// std::atomic<std::shared_ptr>: libstdc++ builds that on a spinlock
  /// ThreadSanitizer cannot see, so TSan flags every publish against every
  /// snapshot() call.
  mutable std::mutex snap_mu_;
  std::shared_ptr<const ChurnSnapshot> snap_;
};

/// Least-weight u-v distance over a snapshot view (mesh or spanner).
/// Callers supply their own runner so concurrent readers never share state.
[[nodiscard]] Weight snapshot_distance(const ChurnSnapshot& snap,
                                       DijkstraRunner& runner, VertexId u,
                                       VertexId v, const FaultView& view);

/// Fewest-hop (unweighted mesh) or least-weight (weighted mesh) u-v route
/// over the snapshot's maintained spanner H, written into `out`; false (and
/// an empty out.path) when H does not connect u and v.  Searches the
/// snapshot's compact H once a reader has built it, and `graph` under
/// spanner_view() until then; unweighted routes search from both ends.
/// Callers supply their own runners so concurrent readers never share
/// state.
bool snapshot_route(const ChurnSnapshot& snap, BfsRunner& bfs,
                    DijkstraRunner& dij, VertexId u, VertexId v, Route& out);

}  // namespace ftspan::service
