// Adversarial fault-set generation for the sampled verifier.
//
// Random fault sets rarely stress a spanner; these strategies aim at its
// weak spots: high-degree spanner vertices (hubs whose loss disconnects many
// alternative paths), the neighborhoods of a single pair (trying to sever
// one edge's detours), and vertices on current replacement paths.

#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "util/rng.h"

namespace ftspan {

/// How to pick a fault set of a given size.
enum class AttackStrategy : std::uint8_t {
  uniform,        ///< Uniform random distinct elements.
  high_degree,    ///< Highest-degree vertices of H (randomly tie-broken);
                  ///< for edge faults: edges incident to high-degree vertices.
  neighborhood,   ///< Neighbors of one random G-edge's endpoints in H.
  detour_hitting, ///< Interior of the current H-shortest detour of a random
                  ///< G-edge, then of the next detour, and so on (greedy,
                  ///< mirrors Algorithm 2's path-hitting).
};

/// Draws one fault set of exactly `count` distinct in-range elements —
/// except when the universe cannot supply them, in which case the set is
/// SHORTER, never padded with duplicates and never an error.  The exact
/// ceiling depends on the strategy:
///
///   - uniform / high_degree: min(count, universe), where the universe is
///     n for vertex faults and m (of g) for edge faults;
///   - neighborhood / detour_hitting, vertex model: min(count, n - 2) —
///     the random pivot edge's endpoints are protected so the trial is not
///     wasted on a skipped pair;
///   - neighborhood, edge model: min(count, m - 1) — the pivot edge itself
///     is excluded.
///
/// Callers that treat a draw as one "size-count trial" must check
/// `ids.size()` and skip (not miscount) short draws — verify_sampled tallies
/// them in StretchReport::trials_skipped.  `g` is the base graph, `h` the
/// spanner under attack.
[[nodiscard]] FaultSet generate_attack(const Graph& g, const Graph& h,
                                       FaultModel model, std::uint32_t count,
                                       AttackStrategy strategy, Rng& rng);

/// detour_hitting aimed at a given pair (pu, pv) instead of a random pivot
/// edge: repeatedly faults the interior (vertex model) or the edges (edge
/// model) of the current shortest pu-pv path through H, then pads with
/// uniform draws, never pu or pv.  generate_attack's detour_hitting is this
/// with a random G-edge as the pair; the adaptive scenario
/// (fault/scenario.h) aims it at its incumbent's worst witness pair.
[[nodiscard]] FaultSet detour_hitting_at(const Graph& g, const Graph& h,
                                         FaultModel model, std::uint32_t count,
                                         VertexId pu, VertexId pv, Rng& rng);

/// Cycles deterministically through all strategies: trial i uses strategy
/// i mod 4.  This is the mix verify_sampled uses.
[[nodiscard]] FaultSet generate_mixed_attack(const Graph& g, const Graph& h,
                                             FaultModel model,
                                             std::uint32_t count,
                                             std::uint32_t trial_index, Rng& rng);

}  // namespace ftspan
