// E17 — stretch under structured attack: what the fault-model axis actually
// does to each construction.  The sampled verifier's uniform/heuristic mix
// (E13) already separates FT from non-FT spanners; the scenario layer
// (fault/scenario.h) asks the sharper question — how does each construction
// hold up under *correlated* failures (SRLG groups, geographic balls), an
// *adaptive* adversary that can see the spanner, and overload *cascades*?
//
// For every (fault model x construction x scenario) cell the bench runs a
// seeded scenario storm and reports the median and worst per-trial stretch.
// Non-FT baselines (ADD+93, Baswana-Sen) violate the bound outright (the
// verifier stops at t * d_G, so max stretch reads infinity -> "viol"
// column, whether or not H still connects the pair); the paper's modified
// greedy must stay within 2k-1 on every cell at f=1..f (that is the CI pin).
//
// Writes BENCH_e17_attack.json; tools/check_perf_floor.py --e17 gates the
// CI smoke run by pinning max_stretch / disconnected_trials / spanner_m per
// seeded config (bench/ci_perf_floor.json, "e17" entries).

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/modified_greedy.h"
#include "fault/attack.h"
#include "fault/scenario.h"
#include "fault/verifier.h"
#include "spanner/add93_greedy.h"
#include "spanner/baswana_sen.h"
#include "spanner/dk11.h"

namespace {

using namespace ftspan;

struct CellResult {
  std::string algo;
  std::string model;
  std::string scenario;
  std::size_t n = 0;
  std::size_t m = 0;
  std::uint32_t f = 0;
  std::uint32_t k = 0;
  std::uint32_t trials = 0;
  std::size_t spanner_m = 0;
  double p50_stretch = 0.0;       // inf -> null in JSON
  double max_stretch = 0.0;       // inf -> null in JSON
  std::uint64_t disconnected_trials = 0;
  bool ok = false;
  double seconds = 0.0;
};

/// Draws the storm for one cell ("uniform" = the attack.h baseline mix of
/// plain uniform draws; otherwise a FaultScenario stream) and verifies it,
/// keeping per-trial reports for the percentile columns.
CellResult run_cell(const Graph& g, const Graph& h, const SpannerParams& params,
                    const std::string& scenario, const ScenarioSpec& spec,
                    std::uint32_t trials, std::uint64_t seed) {
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
std::string json_number(double value) {
  if (std::isinf(value) || std::isnan(value)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << value;
  return os.str();
}

bool write_json(const std::string& path, const std::vector<CellResult>& cells) {
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& c = cells[i];
    out << "  {\"algo\": \"" << c.algo << "\", \"model\": \"" << c.model
        << "\", \"scenario\": \"" << c.scenario << "\", \"n\": " << c.n
        << ", \"m\": " << c.m << ", \"f\": " << c.f << ", \"k\": " << c.k
        << ", \"trials\": " << c.trials << ", \"spanner_m\": " << c.spanner_m
        << ", \"p50_stretch\": " << json_number(c.p50_stretch)
        << ", \"max_stretch\": " << json_number(c.max_stretch)
        << ", \"disconnected_trials\": " << c.disconnected_trials
        << ", \"ok\": " << (c.ok ? "true" : "false")
        << ", \"seconds\": " << c.seconds << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "]\n";
  return out.flush().good();
}

std::string stretch_cell(double value) {
  return std::isinf(value) ? "viol" : Table::num(value, 2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ftspan;
  const Cli cli(argc, argv);
  const auto seed = static_cast<std::uint64_t>(cli.get_uint("seed", 17));
  const auto n = static_cast<std::size_t>(cli.get_uint("n", 120));
  const auto trials = static_cast<std::uint32_t>(cli.get_uint("trials", 16));
  const auto k = static_cast<std::uint32_t>(cli.get_uint("k", 2));
  const auto f = static_cast<std::uint32_t>(cli.get_uint("f", 2));
  const double radius = cli.get_double("radius", 0.25);
  const std::string json_path = cli.get("out", "BENCH_e17_attack.json");
  const bench::ObsFlags obs = bench::obs_flags(cli);

  bench::banner("E17 attack",
                "stretch under structured faults: correlated SRLG groups, "
                "geographic balls, adaptive adversaries, and cascades vs "
                "uniform sampling, across FT and non-FT constructions",
                seed);
  obs.start();

  // One geometric workload shared by every cell: the coordinates make the
  // geographic scenarios meaningful, and every construction sees the same
  // seeded graph.
  Rng gen_rng(seed);
  std::vector<Point> coords;
  const Graph g = random_geometric(n, 0.18, gen_rng, &coords);
  std::cout << "workload " << g.summary() << " (geometric, unit square)\n\n";

  struct Build {
    std::string name;
    Graph h;
  };
  std::vector<Build> builds;
  {
    const SpannerParams params{.k = k, .f = f};
    builds.push_back({"modified", modified_greedy_spanner(g, params).spanner});
    Rng dk_rng(seed + 2);
    Dk11Config dk_config;
    dk_config.iteration_factor = 3.0;
    builds.push_back({"dk11", dk11_spanner(g, params, dk_rng, dk_config).spanner});
    Rng bs_rng(seed + 4);
    builds.push_back({"baswana_sen", baswana_sen_spanner(g, k, bs_rng)});
    builds.push_back({"add93", add93_greedy_spanner(g, k)});
  }

  const std::string scenario_names[] = {"uniform", "srlg", "ball", "adaptive",
                                        "cascade"};
  std::vector<CellResult> cells;
  for (const auto model : {FaultModel::vertex, FaultModel::edge}) {
    const SpannerParams params{.k = k, .f = f, .model = model};
    Table table({"construction", "m(H)", "scenario", "p50 stretch",
                 "max stretch", "viol", "ok"});
    for (const auto& build : builds) {
      for (const auto& name : scenario_names) {
        ScenarioSpec spec;
        if (const auto kind = parse_scenario_kind(name)) spec.kind = *kind;
        spec.ball_radius = radius;
        spec.coords = coords;
        CellResult cell =
            run_cell(g, build.h, params, name, spec, trials,
                     seed + 100 * (model == FaultModel::edge));
        cell.algo = build.name;
        table.add_row({cell.algo, Table::num(cell.spanner_m), cell.scenario,
                       stretch_cell(cell.p50_stretch),
                       stretch_cell(cell.max_stretch),
                       Table::num(static_cast<long long>(
                           cell.disconnected_trials)),
                       cell.ok ? "yes" : "no"});
        cells.push_back(std::move(cell));
      }
    }
    std::cout << "model=" << to_string(model) << " k=" << k << " f=" << f
              << " trials=" << trials << "\n";
    table.print(std::cout);
    std::cout << '\n';
  }

  std::cout << "expected shape: modified greedy stays within 2k-1 on every "
               "scenario; the adaptive column dominates uniform; non-FT "
               "baselines violate the bound under correlated and adaptive faults.\n";

  if (!write_json(json_path, cells)) {
    std::cerr << "error: cannot write " << json_path << "\n";
    return 1;
  }
  std::cout << "\nwrote " << json_path << "\n";
  return obs.finish() ? 0 : 1;
}
