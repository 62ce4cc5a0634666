#include "fault/scenario.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "fault/attack.h"
#include "graph/fault_mask.h"
#include "graph/search.h"
#include "util/check.h"

namespace ftspan {

namespace {

/// Squared-distance comparisons tolerate the float noise of midpoints and
/// unit-square corners (radius sqrt(2) must include a corner vertex).
constexpr double kBallTolerance = 1e-12;

}  // namespace

std::optional<ScenarioKind> parse_scenario_kind(std::string_view name) noexcept {
  for (const auto kind : kAllScenarioKinds)
    if (name == to_string(kind)) return kind;
  return std::nullopt;
}

FaultScenario::FaultScenario(const Graph& g, const Graph& h,
                             const SpannerParams& params, ScenarioSpec spec)
    : g_(g), h_(h), params_(params), spec_(std::move(spec)) {
  params_.validate();
  FTSPAN_REQUIRE(h.n() == g.n(), "spanner must share G's vertex set");
  FTSPAN_REQUIRE(spec_.coords.empty() || spec_.coords.size() == g.n(),
                 "coords must be empty or one Point per vertex");
  if (spec_.kind == ScenarioKind::geo_ball)
    FTSPAN_REQUIRE(spec_.coords.size() == g.n(), "geo_ball requires coords");
  FTSPAN_REQUIRE(spec_.ball_radius >= 0.0, "ball_radius must be >= 0");
}

std::uint32_t FaultScenario::universe() const noexcept {
  return static_cast<std::uint32_t>(
      params_.model == FaultModel::vertex ? g_.n() : g_.m());
}

FaultSet FaultScenario::draw(std::uint32_t trial_index, Rng& rng) {
  (void)trial_index;  // scenarios are stationary; the rng stream varies draws
  switch (spec_.kind) {
    case ScenarioKind::srlg: return draw_srlg(rng);
    case ScenarioKind::geo_ball: return draw_geo_ball(rng);
    case ScenarioKind::adaptive: return draw_adaptive(rng);
    case ScenarioKind::cascade: return draw_cascade(rng);
  }
  FTSPAN_ASSERT(false, "unknown scenario kind");
}

void FaultScenario::ensure_groups(Rng& rng) {
  if (groups_ready_) return;
  groups_ready_ = true;
  const std::uint32_t uni = universe();
  if (uni == 0) return;
  std::uint32_t target = spec_.srlg_groups;
  if (target == 0) {
    const auto denom = std::max<std::uint32_t>(4 * params_.f, 8);
    target = std::max<std::uint32_t>(2, uni / denom);
  }
  target = std::clamp<std::uint32_t>(target, 1, uni);

  if (!spec_.coords.empty()) {
    // Locality grouping: ceil(sqrt(target)) x ceil(sqrt(target)) grid cells
    // over the unit square; vertices bucket by their point, edges by their
    // midpoint.  Deterministic — no rng consumed.
    const auto cells = static_cast<std::uint32_t>(
        std::ceil(std::sqrt(static_cast<double>(target))));
    const auto cell_of = [cells](double x, double y) {
      const auto clampc = [cells](double t) {
        const auto c = static_cast<std::int64_t>(t * cells);
        return static_cast<std::uint32_t>(
            std::clamp<std::int64_t>(c, 0, cells - 1));
      };
      return clampc(y) * cells + clampc(x);
    };
    std::vector<std::vector<std::uint32_t>> buckets(
        static_cast<std::size_t>(cells) * cells);
    if (params_.model == FaultModel::vertex) {
      for (VertexId v = 0; v < g_.n(); ++v)
        buckets[cell_of(spec_.coords[v].x, spec_.coords[v].y)].push_back(v);
    } else {
      for (EdgeId id = 0; id < g_.m(); ++id) {
        const auto& e = g_.edge(id);
        const double mx = 0.5 * (spec_.coords[e.u].x + spec_.coords[e.v].x);
        const double my = 0.5 * (spec_.coords[e.u].y + spec_.coords[e.v].y);
        buckets[cell_of(mx, my)].push_back(id);
      }
    }
    for (auto& bucket : buckets)
      if (!bucket.empty()) groups_.push_back(std::move(bucket));
    return;
  }

  // Seeded random partition: shuffle the universe once, deal round-robin.
  std::vector<std::uint32_t> ids(uni);
  std::iota(ids.begin(), ids.end(), 0);
  std::shuffle(ids.begin(), ids.end(), rng);
  groups_.resize(target);
  for (std::uint32_t i = 0; i < uni; ++i)
    groups_[i % target].push_back(ids[i]);
}

FaultSet FaultScenario::draw_srlg(Rng& rng) {
  ensure_groups(rng);
  FaultSet out{params_.model, {}};
  if (groups_.empty()) return out;
  const std::uint32_t want = std::min<std::uint32_t>(params_.f, universe());
  const auto start = static_cast<std::size_t>(rng.next_below(groups_.size()));
  for (std::size_t step = 0;
       step < groups_.size() && out.ids.size() < want; ++step) {
    for (const auto id : groups_[(start + step) % groups_.size()]) {
      if (out.ids.size() >= want) break;
      out.ids.push_back(id);
    }
  }
  return out;
}

FaultSet FaultScenario::draw_geo_ball(Rng& rng) {
  FaultSet out{params_.model, {}};
  if (g_.n() == 0) return out;
  const auto center =
      static_cast<VertexId>(rng.next_below(g_.n()));
  const Point c = spec_.coords[center];
  const double r2 =
      spec_.ball_radius * spec_.ball_radius + kBallTolerance;
  const auto dist2 = [&](VertexId v) {
    const double dx = spec_.coords[v].x - c.x;
    const double dy = spec_.coords[v].y - c.y;
    return dx * dx + dy * dy;
  };
  const std::uint32_t want = std::min<std::uint32_t>(params_.f, universe());

  // Nearest-first, id tie-broken, capped at f.  The center vertex is at
  // distance 0, so radius 0 fails exactly the center (vertex model).
  std::vector<std::pair<double, std::uint32_t>> in_ball;
  if (params_.model == FaultModel::vertex) {
    for (VertexId v = 0; v < g_.n(); ++v)
      if (const double d2 = dist2(v); d2 <= r2) in_ball.emplace_back(d2, v);
  } else {
    // An edge fails when both endpoints are inside the ball.
    for (EdgeId id = 0; id < g_.m(); ++id) {
      const auto& e = g_.edge(id);
      const double d2 = std::max(dist2(e.u), dist2(e.v));
      if (d2 <= r2) in_ball.emplace_back(d2, id);
    }
  }
  std::sort(in_ball.begin(), in_ball.end());
  for (const auto& [d2, id] : in_ball) {
    if (out.ids.size() >= want) break;
    out.ids.push_back(id);
  }
  return out;
}

FaultSet FaultScenario::draw_adaptive(Rng& rng) {
  const std::uint32_t want = std::min<std::uint32_t>(params_.f, universe());
  FaultSet best = generate_attack(g_, h_, params_.model, want,
                                  AttackStrategy::uniform, rng);
  StretchReport best_rep = check_fault_set(g_, h_, params_, best);
  const auto consider = [&](FaultSet cand) {
    StretchReport rep = check_fault_set(g_, h_, params_, cand);
    // Strictly greater keeps the earliest argmax, so draws are deterministic.
    if (rep.max_stretch > best_rep.max_stretch) {
      best = std::move(cand);
      best_rep = std::move(rep);
    }
  };
  for (std::uint32_t restart = 0; restart < spec_.restarts; ++restart) {
    // Aim detour-hitting at the incumbent's worst witness pair; before any
    // pair exists (empty graph, all pairs faulted) fall back to a random
    // pivot edge like attack.h does.
    VertexId pu = best_rep.worst.u;
    VertexId pv = best_rep.worst.v;
    if (pu == kInvalidVertex || pv == kInvalidVertex) {
      if (g_.m() == 0) break;
      const auto& e = g_.edge(static_cast<EdgeId>(rng.next_below(g_.m())));
      pu = e.u;
      pv = e.v;
    }
    consider(detour_hitting_at(g_, h_, params_.model, want, pu, pv, rng));
    consider(generate_attack(g_, h_, params_.model, want,
                             AttackStrategy::high_degree, rng));
    consider(generate_attack(g_, h_, params_.model, want,
                             AttackStrategy::uniform, rng));
  }
  return best;
}

FaultSet FaultScenario::draw_cascade(Rng& rng) {
  const std::uint32_t want = std::min<std::uint32_t>(params_.f, universe());
  FaultSet out{params_.model, {}};
  if (want == 0) return out;

  if (params_.model == FaultModel::edge) {
    // A failed edge's load (1 + whatever cascaded onto it) re-routes along
    // the current shortest detour between its endpoints through H; the most
    // loaded surviving edge fails next (ties: smallest id).  The BFS runs on
    // g with non-spanner edges masked, so the arc path carries g edge ids.
    std::vector<double> load(g_.m(), 0.0);
    ScratchMask emask(static_cast<std::uint32_t>(g_.m()));
    for (EdgeId id = 0; id < g_.m(); ++id) {
      const auto& e = g_.edge(id);
      if (!h_.has_edge(e.u, e.v)) emask.set(id);
    }
    ScratchMask failed(static_cast<std::uint32_t>(g_.m()));
    BfsRunner bfs;
    std::vector<PathStep> path;
    auto cur = static_cast<EdgeId>(rng.next_below(g_.m()));
    while (out.ids.size() < want) {
      failed.set(cur);
      emask.set(cur);
      out.ids.push_back(cur);
      const double moved = 1.0 + load[cur];
      const auto& e = g_.edge(cur);
      if (bfs.shortest_path_arcs(g_, e.u, e.v, path,
                                 FaultView{{}, emask.bytes()})) {
        for (std::size_t i = 1; i < path.size(); ++i)
          load[path[i].edge] += moved;
      }
      if (out.ids.size() >= want) break;
      EdgeId next = 0;
      double next_load = 0.0;
      bool found = false;
      for (EdgeId id = 0; id < g_.m(); ++id)
        if (!failed.test(id) && load[id] > next_load) {
          next_load = load[id];
          next = id;
          found = true;
        }
      if (!found) {
        // No detour absorbed the load (disconnected pair): restart the
        // cascade at a uniform surviving edge.
        if (failed.touched().size() >= g_.m()) break;
        do {
          next = static_cast<EdgeId>(rng.next_below(g_.m()));
        } while (failed.test(next));
      }
      cur = next;
    }
    return out;
  }

  // Vertex model: a failed vertex spills its load evenly onto its surviving
  // H-neighbors; the most loaded survivor fails next (ties: smallest id).
  std::vector<double> load(g_.n(), 0.0);
  ScratchMask failed(static_cast<std::uint32_t>(g_.n()));
  auto cur = static_cast<VertexId>(rng.next_below(g_.n()));
  std::vector<VertexId> alive_nbrs;
  while (out.ids.size() < want) {
    failed.set(cur);
    out.ids.push_back(cur);
    const double moved = 1.0 + load[cur];
    alive_nbrs.clear();
    for (const auto& arc : h_.neighbors(cur))
      if (!failed.test(arc.to)) alive_nbrs.push_back(arc.to);
    for (const auto v : alive_nbrs)
      load[v] += moved / static_cast<double>(alive_nbrs.size());
    if (out.ids.size() >= want) break;
    VertexId next = 0;
    double next_load = 0.0;
    bool found = false;
    for (VertexId v = 0; v < g_.n(); ++v)
      if (!failed.test(v) && load[v] > next_load) {
        next_load = load[v];
        next = v;
        found = true;
      }
    if (!found) {
      if (failed.touched().size() >= g_.n()) break;
      do {
        next = static_cast<VertexId>(rng.next_below(g_.n()));
      } while (failed.test(next));
    }
    cur = next;
  }
  return out;
}

StretchReport verify_scenario(const Graph& g, const Graph& h,
                              const SpannerParams& params,
                              const ScenarioSpec& spec, std::uint32_t trials,
                              Rng& rng, const ExecPolicy& exec,
                              std::vector<FaultSet>* sets_out) {
  params.validate();
  FaultScenario scenario(g, h, params, spec);
  // Draws consume `rng` sequentially up front — the verify_sampled
  // bit-identity contract — then the checks fan over the pool.
  std::vector<FaultSet> sets;
  sets.reserve(std::size_t{trials} + 1);
  sets.push_back(FaultSet{params.model, {}});
  for (std::uint32_t trial = 0; trial < trials; ++trial)
    sets.push_back(scenario.draw(trial, rng));
  StretchReport report = verify_fault_sets(g, h, params, sets, exec);
  if (sets_out != nullptr) *sets_out = std::move(sets);
  return report;
}

}  // namespace ftspan
