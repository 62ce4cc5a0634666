// Exhaustive-oracle harness for the structured fault scenarios
// (fault/scenario.h).  On small instances verify_exhaustive is ground truth:
// every scenario's worst witness must be bounded by the exhaustive worst and
// must replay exactly through check_fault_set.  The adaptive adversary must
// dominate uniform sampling on seeded configs, and the geographic ball obeys
// its metamorphic identities (radius 0 = single-vertex fault, radius
// covering the square = everything fails up to the f cap).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/modified_greedy.h"
#include "fault/attack.h"
#include "fault/scenario.h"
#include "fault/verifier.h"
#include "graph/generators.h"
#include "spanner/add93_greedy.h"
#include "spanner/baswana_sen.h"
#include "test_util.h"
#include "util/rng.h"

namespace ftspan {
namespace {

std::string ctx_of(std::uint64_t seed, ScenarioKind kind, FaultModel model) {
  return std::string("seed=") + std::to_string(seed) +
         " scenario=" + to_string(kind) + " model=" + to_string(model);
}

/// Asserts that `report.worst` replays exactly: re-checking the stored fault
/// set alone reproduces the same max stretch and the same witness pair.
void expect_witness_replays(const Graph& g, const Graph& h,
                            const SpannerParams& params,
                            const StretchReport& report,
                            const std::string& ctx) {
  const StretchReport replay = check_fault_set(g, h, params, report.worst.faults);
  EXPECT_EQ(replay.max_stretch, report.max_stretch) << ctx;
  EXPECT_EQ(replay.worst.u, report.worst.u) << ctx;
  EXPECT_EQ(replay.worst.v, report.worst.v) << ctx;
  EXPECT_EQ(replay.worst.d_g, report.worst.d_g) << ctx;
  EXPECT_EQ(replay.worst.d_h, report.worst.d_h) << ctx;
  EXPECT_EQ(replay.worst.faults.ids, report.worst.faults.ids) << ctx;
}

ScenarioSpec spec_for(ScenarioKind kind, const std::vector<Point>& coords) {
  ScenarioSpec spec;
  spec.kind = kind;
  spec.ball_radius = 0.35;
  spec.restarts = 2;
  if (kind == ScenarioKind::geo_ball || kind == ScenarioKind::srlg)
    spec.coords = coords;
  return spec;
}

// ------------------------------------------------ exhaustive oracle bound

TEST(Scenario, WorstWitnessNeverExceedsExhaustiveOracle) {
  // Every scenario draw has |F| <= f, so its worst stretch is bounded by the
  // exhaustive max over all C(universe, <= f) sets — for FT and broken
  // spanners alike.
  for (const std::uint64_t seed : {3u, 4u, 5u}) {
    Rng gen_rng(0x5ce0ULL * seed + 1);
    std::vector<Point> coords;
    const Graph g = random_geometric(11, 0.55, gen_rng, &coords);
    const SpannerParams base{.k = 2, .f = 2};
    const Graph ft = modified_greedy_spanner(g, base).spanner;
    const Graph non_ft = add93_greedy_spanner(g, base.k);
    for (const auto* h : {&ft, &non_ft}) {
      for (const FaultModel model : {FaultModel::vertex, FaultModel::edge}) {
        const SpannerParams params{.k = 2, .f = 2, .model = model};
        const StretchReport oracle = verify_exhaustive(g, *h, params);
        for (const ScenarioKind kind : kAllScenarioKinds) {
          const std::string ctx =
              ctx_of(seed, kind, model) +
              (h == &ft ? " spanner=modified" : " spanner=add93");
          Rng rng(seed * 977 + 5);
          const StretchReport report = verify_scenario(
              g, *h, params, spec_for(kind, coords), 12, rng);
          EXPECT_LE(report.max_stretch, oracle.max_stretch) << ctx;
          expect_witness_replays(g, *h, params, report, ctx);
        }
      }
    }
  }
}

TEST(Scenario, SampledWitnessReplaysToo) {
  // The same replay contract holds for the attack-mix sampler.
  Rng gen_rng(0xabcdULL);
  const Graph g = testing::connected_gnp(18, 0.25, 40);
  Rng bs_rng(9);
  const Graph h = baswana_sen_spanner(g, 2, bs_rng);
  for (const FaultModel model : {FaultModel::vertex, FaultModel::edge}) {
    const SpannerParams params{.k = 2, .f = 2, .model = model};
    Rng rng(31);
    const StretchReport report = verify_sampled(g, h, params, 24, rng);
    expect_witness_replays(g, h, params, report,
                           std::string("sampled model=") + to_string(model));
  }
}

// ------------------------------------------------ adaptive vs uniform

TEST(Scenario, AdaptiveDominatesUniformOnSeededConfigs) {
  // Against a non-FT spanner the adaptive adversary (which evaluates uniform
  // candidates among others and keeps the argmax) must find at least the
  // stretch plain uniform sampling finds, on every seeded config.
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    const Graph g = testing::connected_gnp(24, 0.22, seed);
    Rng bs_rng(seed);
    const Graph h = baswana_sen_spanner(g, 2, bs_rng);
    for (const FaultModel model : {FaultModel::vertex, FaultModel::edge}) {
      const SpannerParams params{.k = 2, .f = 2, .model = model};
      const std::string ctx = ctx_of(seed, ScenarioKind::adaptive, model);

      Rng uniform_rng(seed * 31 + 7);
      std::vector<FaultSet> uniform_sets;
      uniform_sets.push_back(FaultSet{model, {}});
      for (int trial = 0; trial < 8; ++trial)
        uniform_sets.push_back(generate_attack(
            g, h, model, params.f, AttackStrategy::uniform, uniform_rng));
      const StretchReport uniform_report =
          verify_fault_sets(g, h, params, uniform_sets);

      ScenarioSpec spec;
      spec.kind = ScenarioKind::adaptive;
      spec.restarts = 2;
      Rng adaptive_rng(seed * 31 + 7);
      const StretchReport adaptive_report =
          verify_scenario(g, h, params, spec, 8, adaptive_rng);

      EXPECT_GE(adaptive_report.max_stretch, uniform_report.max_stretch)
          << ctx << " adaptive=" << adaptive_report.max_stretch
          << " uniform=" << uniform_report.max_stretch;
    }
  }
}

TEST(Scenario, DetourHittingDrawsMatchGolden) {
  // generate_attack's detour_hitting and the adaptive adversary share one
  // detour-hitting routine.  These ids were recorded before the two copies
  // were merged: any change in the ids a draw picks, or in how many values
  // it takes from the rng (`next` is the stream's following value), fails.
  // On this graph attack seeds 1 and 4 draw a pivot outside H and seed 2
  // one inside it, and the adaptive draw keeps a detour-hitting candidate.
  Rng gen_rng(0x5eedULL);
  const Graph g =
      with_uniform_weights(gnp(40, 0.3, gen_rng), 1.0, 4.0, gen_rng);
  const Graph h =
      modified_greedy_spanner(g, SpannerParams{.k = 2, .f = 1}).spanner;
  struct Golden {
    FaultModel model;
    std::uint64_t seed;
    std::vector<std::uint32_t> ids;
    std::uint64_t next;
  };
  const Golden attacks[] = {
      {FaultModel::vertex, 1, {17, 34, 23, 4, 21}, 9600361134598540522ULL},
      {FaultModel::vertex, 2, {29, 7, 27, 9, 25}, 4040804623166480017ULL},
      {FaultModel::vertex, 4, {29, 1, 14, 32, 12}, 16814767001489736492ULL},
      {FaultModel::edge, 1, {149, 154, 156, 179, 181}, 9600361134598540522ULL},
      {FaultModel::edge, 2, {23, 29, 128, 20, 7}, 13383431742290777482ULL},
      {FaultModel::edge, 4, {55, 210, 7, 9, 135}, 16814767001489736492ULL},
  };
  for (const auto& golden : attacks) {
    Rng rng(golden.seed);
    EXPECT_EQ(generate_attack(g, h, golden.model, 5,
                              AttackStrategy::detour_hitting, rng)
                  .ids,
              golden.ids)
        << to_string(golden.model) << " seed=" << golden.seed;
    EXPECT_EQ(rng(), golden.next)
        << to_string(golden.model) << " seed=" << golden.seed;
  }
  const Golden adaptive[] = {
      {FaultModel::vertex, 3, {38, 2, 31}, 5596130926054517994ULL},
      {FaultModel::edge, 3, {12, 167, 8}, 5596130926054517994ULL},
  };
  for (const auto& golden : adaptive) {
    ScenarioSpec spec;
    spec.kind = ScenarioKind::adaptive;
    FaultScenario scenario(
        g, h, SpannerParams{.k = 2, .f = 3, .model = golden.model}, spec);
    Rng rng(golden.seed);
    EXPECT_EQ(scenario.draw(0, rng).ids, golden.ids) << to_string(golden.model);
    EXPECT_EQ(rng(), golden.next) << to_string(golden.model);
  }
}

// ------------------------------------------------ metamorphic geo-ball

TEST(Scenario, BallRadiusZeroFailsExactlyTheCenterVertex) {
  Rng gen_rng(0xba11ULL);
  std::vector<Point> coords;
  const Graph g = random_geometric(14, 0.5, gen_rng, &coords);
  ScenarioSpec spec;
  spec.kind = ScenarioKind::geo_ball;
  spec.ball_radius = 0.0;
  spec.coords = coords;
  {
    // Vertex model: the center is at distance 0 of itself, nothing else is.
    const SpannerParams params{.k = 2, .f = 3};
    FaultScenario scenario(g, g, params, spec);
    Rng rng(5);
    for (std::uint32_t trial = 0; trial < 10; ++trial) {
      const FaultSet fs = scenario.draw(trial, rng);
      ASSERT_EQ(fs.ids.size(), 1u) << "trial=" << trial;
      EXPECT_LT(fs.ids[0], g.n()) << "trial=" << trial;
    }
  }
  {
    // Edge model: an edge fails only when BOTH endpoints are in the ball;
    // endpoints have distinct random coordinates, so radius 0 fails nothing.
    const SpannerParams params{
        .k = 2, .f = 3, .model = FaultModel::edge};
    FaultScenario scenario(g, g, params, spec);
    Rng rng(5);
    for (std::uint32_t trial = 0; trial < 10; ++trial)
      EXPECT_TRUE(scenario.draw(trial, rng).ids.empty()) << "trial=" << trial;
  }
}

TEST(Scenario, BallCoveringTheSquareFailsEverythingUpToTheCap) {
  Rng gen_rng(0xba12ULL);
  std::vector<Point> coords;
  const Graph g = random_geometric(12, 0.5, gen_rng, &coords);
  ScenarioSpec spec;
  spec.kind = ScenarioKind::geo_ball;
  spec.ball_radius = 1.5;  // > sqrt(2): every point of the unit square
  spec.coords = coords;
  {
    // f = n: the whole vertex set fails.
    const SpannerParams params{.k = 2,
                               .f = static_cast<std::uint32_t>(g.n())};
    FaultScenario scenario(g, g, params, spec);
    Rng rng(6);
    FaultSet fs = scenario.draw(0, rng);
    ASSERT_EQ(fs.ids.size(), g.n());
    std::sort(fs.ids.begin(), fs.ids.end());
    for (VertexId v = 0; v < g.n(); ++v) EXPECT_EQ(fs.ids[v], v);
  }
  {
    // f = n-1: everything but one survivor — the vertex farthest from the
    // center (nearest-first fill drops exactly the last one).
    const SpannerParams params{.k = 2,
                               .f = static_cast<std::uint32_t>(g.n()) - 1};
    FaultScenario scenario(g, g, params, spec);
    Rng rng(6);
    const FaultSet fs = scenario.draw(0, rng);
    ASSERT_EQ(fs.ids.size(), g.n() - 1);
  }
  {
    // Edge model, f = m: every edge fails.
    const SpannerParams params{.k = 2,
                               .f = static_cast<std::uint32_t>(g.m()),
                               .model = FaultModel::edge};
    FaultScenario scenario(g, g, params, spec);
    Rng rng(6);
    EXPECT_EQ(scenario.draw(0, rng).ids.size(), g.m());
  }
}

// ------------------------------------------------ structural invariants

TEST(Scenario, DrawsAreDistinctInRangeAndWithinBudget) {
  Rng gen_rng(0x77ULL);
  std::vector<Point> coords;
  const Graph g = random_geometric(20, 0.4, gen_rng, &coords);
  const Graph h = modified_greedy_spanner(g, SpannerParams{.k = 2, .f = 2})
                      .spanner;
  for (const FaultModel model : {FaultModel::vertex, FaultModel::edge}) {
    const auto universe = model == FaultModel::vertex ? g.n() : g.m();
    const SpannerParams params{.k = 2, .f = 3, .model = model};
    for (const ScenarioKind kind : kAllScenarioKinds) {
      FaultScenario scenario(g, h, params, spec_for(kind, coords));
      Rng rng(91);
      for (std::uint32_t trial = 0; trial < 8; ++trial) {
        FaultSet fs = scenario.draw(trial, rng);
        const std::string ctx =
            ctx_of(91, kind, model) + " trial=" + std::to_string(trial);
        EXPECT_LE(fs.ids.size(), params.f) << ctx;
        std::sort(fs.ids.begin(), fs.ids.end());
        EXPECT_EQ(std::adjacent_find(fs.ids.begin(), fs.ids.end()),
                  fs.ids.end())
            << ctx << " (duplicate id)";
        for (const auto id : fs.ids) EXPECT_LT(id, universe) << ctx;
      }
    }
  }
}

TEST(Scenario, SrlgAndCascadeAlwaysSpendTheFullBudget) {
  // SRLG spills into neighboring groups and the cascade falls back to
  // uniform restarts, so both reach min(f, universe) faults per draw.
  const Graph g = testing::connected_gnp(16, 0.3, 8);
  const Graph h = modified_greedy_spanner(g, SpannerParams{.k = 2, .f = 2})
                      .spanner;
  for (const FaultModel model : {FaultModel::vertex, FaultModel::edge}) {
    const SpannerParams params{.k = 2, .f = 4, .model = model};
    const auto universe = model == FaultModel::vertex ? g.n() : g.m();
    const auto want = std::min<std::size_t>(params.f, universe);
    for (const ScenarioKind kind :
         {ScenarioKind::srlg, ScenarioKind::cascade}) {
      FaultScenario scenario(g, h, params, spec_for(kind, {}));
      Rng rng(17);
      for (std::uint32_t trial = 0; trial < 6; ++trial)
        EXPECT_EQ(scenario.draw(trial, rng).ids.size(), want)
            << ctx_of(17, kind, model) << " trial=" << trial;
    }
  }
}

TEST(Scenario, StreamsAreDeterministicGivenTheSeed) {
  Rng gen_rng(0xdeadULL);
  std::vector<Point> coords;
  const Graph g = random_geometric(18, 0.42, gen_rng, &coords);
  Rng bs_rng(2);
  const Graph h = baswana_sen_spanner(g, 2, bs_rng);
  for (const FaultModel model : {FaultModel::vertex, FaultModel::edge}) {
    const SpannerParams params{.k = 2, .f = 2, .model = model};
    for (const ScenarioKind kind : kAllScenarioKinds) {
      FaultScenario a(g, h, params, spec_for(kind, coords));
      FaultScenario b(g, h, params, spec_for(kind, coords));
      Rng rng_a(1234);
      Rng rng_b(1234);
      for (std::uint32_t trial = 0; trial < 6; ++trial) {
        const FaultSet fa = a.draw(trial, rng_a);
        const FaultSet fb = b.draw(trial, rng_b);
        EXPECT_EQ(fa.ids, fb.ids)
            << ctx_of(1234, kind, model) << " trial=" << trial;
      }
    }
  }
}

TEST(Scenario, ParseRoundTripsAndRejectsJunk) {
  for (const ScenarioKind kind : kAllScenarioKinds) {
    const auto parsed = parse_scenario_kind(to_string(kind));
    ASSERT_TRUE(parsed.has_value()) << to_string(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(parse_scenario_kind("").has_value());
  EXPECT_FALSE(parse_scenario_kind("srlgg").has_value());
  EXPECT_FALSE(parse_scenario_kind("geo_ball").has_value());  // name is "ball"
}

}  // namespace
}  // namespace ftspan
