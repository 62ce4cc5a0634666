// Structured fault scenarios: correlated, geographic, adaptive, and
// cascading fault models for the sampled verifier and the attack benches.
//
// The uniform/adversarial mix of attack.h draws each fault independently;
// real failures are correlated — a fiber cut takes out every circuit in the
// duct (SRLG), a disaster takes out a geographic region, a determined
// adversary searches for the worst set against the spanner it can see, and
// overload cascades walk failure along the re-routed load.  A FaultScenario
// turns each of these into a deterministic fault-set *stream*: given the
// same graph pair and the same Rng seed, draw(0..trials-1) yields the same
// sets, so scenario storms are reproducible and bit-identical across thread
// counts (the storm draws sequentially up front and folds per-trial reports
// in trial order — exactly the verify_sampled contract).
//
// Every draw respects Definition 1's quantifier: |F| <= f always (a
// scenario may return fewer than f faults — e.g. a small geographic ball —
// and that is a legitimate, checkable fault set, never an error).

#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "core/options.h"
#include "fault/verifier.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace ftspan {

/// The structured fault models (the scenario axis).
enum class ScenarioKind : std::uint8_t {
  srlg,      ///< Shared-risk groups: the universe is partitioned into groups
             ///< (seeded random deal, or locality cells when coords are
             ///< given); a draw fails one whole group, spilling into the
             ///< cyclically next groups until f faults are reached.
  geo_ball,  ///< Geographic ball: all elements within radius r of a random
             ///< vertex's coordinates fail, nearest first, capped at f.
             ///< Requires coords (one Point per vertex).
  adaptive,  ///< Adaptive adversary: hill-climbs on check_fault_set — each
             ///< restart aims detour-hitting at the current worst witness
             ///< pair and keeps the candidate with the larger max stretch
             ///< (uniform and hub candidates seed the pool, so it dominates
             ///< uniform sampling by construction).
  cascade,   ///< Overload cascade: a seed failure re-routes its load onto
             ///< the surviving detour (edge model) or the neighbors (vertex
             ///< model); the most loaded survivor fails next, and so on.
};

/// Printable name ("srlg" / "ball" / "adaptive" / "cascade").
[[nodiscard]] constexpr const char* to_string(ScenarioKind kind) noexcept {
  switch (kind) {
    case ScenarioKind::srlg: return "srlg";
    case ScenarioKind::geo_ball: return "ball";
    case ScenarioKind::adaptive: return "adaptive";
    case ScenarioKind::cascade: return "cascade";
  }
  return "?";
}

/// Parses a scenario name as printed by to_string; nullopt on anything else.
[[nodiscard]] std::optional<ScenarioKind> parse_scenario_kind(
    std::string_view name) noexcept;

/// All four kinds, in declaration order — for sweeps over the scenario axis.
inline constexpr ScenarioKind kAllScenarioKinds[] = {
    ScenarioKind::srlg, ScenarioKind::geo_ball, ScenarioKind::adaptive,
    ScenarioKind::cascade};

/// Tuning knobs for a FaultScenario.  Defaults are sensible for the
/// benchmark-sized graphs the verifier storms run on.
struct ScenarioSpec {
  ScenarioKind kind = ScenarioKind::srlg;

  /// SRLG group count; 0 = auto (universe / max(4f, 8), at least 2).  With
  /// coords present the grouping is by locality (ceil(sqrt(groups)) grid
  /// cells over the unit square, edges bucketed by midpoint); without, a
  /// seeded shuffle is dealt round-robin, so groups are a uniform random
  /// partition drawn once from the stream's first draw.
  std::uint32_t srlg_groups = 0;

  /// geo_ball radius in coordinate units (the generators emit unit-square
  /// coords, so sqrt(2) covers everything).  Radius 0 fails exactly the
  /// center vertex (vertex model).
  double ball_radius = 0.2;

  /// Vertex coordinates: required for geo_ball, optional for srlg (enables
  /// locality grouping).  Must be empty or size g.n().  random_geometric
  /// emits these; grid_coords() derives them for grid/torus graphs.
  std::vector<Point> coords;

  /// Adaptive adversary hill-climbing restarts per draw (each restart
  /// evaluates a detour-hitting candidate aimed at the incumbent's worst
  /// witness pair, plus one fresh uniform and one hub candidate).
  std::uint32_t restarts = 3;
};

/// A deterministic fault-set stream for one (G, H, params, spec) tuple.
/// Precomputed state (SRLG grouping, coordinate order) is built lazily from
/// the first draw's Rng, so the whole stream is a pure function of the seed.
/// Draws are sequential by contract — the storm helpers draw up front, then
/// fan the checks.
class FaultScenario {
 public:
  /// Binds the scenario to a graph pair.  `g` and `h` (and spec.coords)
  /// must outlive the scenario.  Requires h.n() == g.n(); geo_ball requires
  /// coords.size() == g.n().
  FaultScenario(const Graph& g, const Graph& h, const SpannerParams& params,
                ScenarioSpec spec);

  /// Draws the fault set of trial `trial_index` from `rng`.  |F| <= f,
  /// model matches params.model, ids are distinct and in range.  The
  /// adaptive kind runs check_fault_set internally — 1 + 3 * restarts calls
  /// per draw — while the other kinds draw in O(universe).
  [[nodiscard]] FaultSet draw(std::uint32_t trial_index, Rng& rng);

  [[nodiscard]] const ScenarioSpec& spec() const noexcept { return spec_; }

 private:
  [[nodiscard]] std::uint32_t universe() const noexcept;
  void ensure_groups(Rng& rng);
  FaultSet draw_srlg(Rng& rng);
  FaultSet draw_geo_ball(Rng& rng);
  FaultSet draw_adaptive(Rng& rng);
  FaultSet draw_cascade(Rng& rng);

  const Graph& g_;
  const Graph& h_;
  SpannerParams params_;
  ScenarioSpec spec_;

  /// SRLG partition: groups_[k] lists the member ids of group k (built once
  /// from the first draw's rng — or deterministically from coords).
  std::vector<std::vector<std::uint32_t>> groups_;
  bool groups_ready_ = false;
};

/// Runs a scenario storm: `trials` draws (plus the empty set, so H must at
/// least be a plain spanner) checked against every surviving G-edge and
/// folded in trial order.  Exactly the verify_sampled execution contract:
/// draws consume `rng` sequentially up front, trials fan over the shared
/// pool when exec.threads != 1, and the report — including the worst
/// witness — is bit-identical at any thread count.  When `sets_out` is not
/// null it receives the drawn sets (index 0 = the empty set), aligned with
/// `per_trial` of verify_fault_sets.
[[nodiscard]] StretchReport verify_scenario(const Graph& g, const Graph& h,
                                            const SpannerParams& params,
                                            const ScenarioSpec& spec,
                                            std::uint32_t trials, Rng& rng,
                                            const ExecPolicy& exec = {},
                                            std::vector<FaultSet>* sets_out =
                                                nullptr);

}  // namespace ftspan
