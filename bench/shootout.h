// The cell protocol shared by the E13 zoo shootout and the E17 attack
// shootout: one cell is one construction's spanner under one fault model
// and one scenario, verified over a seeded storm.  Both benches pin these
// cells exactly (bench/ci_perf_floor.json), so they must draw and score a
// storm the same way; each keeps its own JSON writer.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "fault/attack.h"
#include "fault/scenario.h"
#include "fault/verifier.h"
#include "graph/graph.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace ftspan::bench {

struct CellResult {
  std::string algo;
  std::string model;
  std::string scenario;
  std::string graph;  // workload name (E13 only): geom | geomw
  bool weighted = false;
  bool has_ab = false;  // alpha/beta apply (E13 alpha_beta rows only)
  double alpha = 0.0;
  double beta = 0.0;
  std::size_t n = 0;
  std::size_t m = 0;
  std::uint32_t f = 0;
  std::uint32_t k = 0;
  std::uint32_t trials = 0;
  std::size_t spanner_m = 0;
  double build_seconds = 0.0;
  std::uint64_t arcs_traversed = 0;
  std::uint64_t exact_searches = 0;
  double p50_stretch = 0.0;  // inf -> null in JSON
  double max_stretch = 0.0;  // inf -> null in JSON
  std::uint64_t disconnected_trials = 0;
  bool ok = false;
  double seconds = 0.0;  // verification time
};

/// Draws the storm for one cell ("uniform" = the attack.h baseline mix of
/// plain uniform draws; otherwise a FaultScenario stream) and verifies it,
/// keeping per-trial reports for the percentile columns.
inline CellResult run_cell(const Graph& g, const Graph& h,
                           const SpannerParams& params,
                           const std::string& scenario,
                           const ScenarioSpec& spec, std::uint32_t trials,
                           std::uint64_t seed) {
  CellResult out;
  out.scenario = scenario;
  out.model = to_string(params.model);
  out.n = g.n();
  out.m = g.m();
  out.f = params.f;
  out.k = params.k;
  out.trials = trials;
  out.spanner_m = h.m();

  Rng rng(seed);
  std::vector<FaultSet> sets;
  sets.reserve(std::size_t{trials} + 1);
  sets.push_back(FaultSet{params.model, {}});
  const Timer timer;
  if (scenario == "uniform") {
    for (std::uint32_t trial = 0; trial < trials; ++trial)
      sets.push_back(generate_attack(g, h, params.model, params.f,
                                     AttackStrategy::uniform, rng));
  } else {
    FaultScenario stream(g, h, params, spec);
    for (std::uint32_t trial = 0; trial < trials; ++trial)
      sets.push_back(stream.draw(trial, rng));
  }
  std::vector<StretchReport> per_set;
  const StretchReport report =
      verify_fault_sets(g, h, params, sets, ExecPolicy{}, &per_set);
  out.seconds = timer.seconds();
  out.ok = report.ok;
  out.max_stretch = report.max_stretch;

  // Percentile over the storm trials (index 0 is the empty set).
  std::vector<double> stretches;
  stretches.reserve(trials);
  for (std::size_t i = 1; i < per_set.size(); ++i) {
    stretches.push_back(per_set[i].max_stretch);
    if (std::isinf(per_set[i].max_stretch)) ++out.disconnected_trials;
  }
  if (!stretches.empty()) {
    std::sort(stretches.begin(), stretches.end());
    out.p50_stretch = stretches[stretches.size() / 2];
  }
  return out;
}

/// inf has no JSON literal: emit null and let disconnected_trials carry the
/// signal (the gate pins both).
inline std::string json_number(double value) {
  if (std::isinf(value) || std::isnan(value)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << value;
  return os.str();
}

/// A stretch table cell: "viol" when some pair violated the bound.
inline std::string stretch_cell(double value) {
  return std::isinf(value) ? "viol" : Table::num(value, 2);
}

}  // namespace ftspan::bench
