// E13 — the algorithm-zoo shootout: every construction registered in the
// dispatch table (spanner/registry.h), measured on the same seeded workloads
// across both fault models and the full PR 8 scenario axis.
//
// The landscape (Section 1 of the paper, extended by the related work):
//   * ADD+93 greedy / Baswana-Sen: optimal/fast non-FT baselines — collapse
//     under faults,
//   * DK11: pre-[BDPW18] FT state of the art, O(f^{2-1/k} n^{1+1/k} log n),
//   * modified greedy (this paper): near-optimal O(k f^{1-1/k} n^{1+1/k})
//     in polynomial time,
//   * BDPVW (1710.03164): optimal O(f^{1-1/k} n^{1+1/k}) size via the
//     NP-hard test — run here as the LBC-prefiltered hybrid,
//   * (alpha,beta)-greedy (2603.17085): the budgeted test alpha*w + beta —
//     denser than the multiplicative greedy on weighted graphs but with a
//     per-edge additive guarantee.
// "exact" is deliberately absent: bdpvw picks the identical edge set
// (pinned by tests/zoo_test.cpp) at a fraction of the search cost.
//
// Two workloads share one geometric topology: unit weights ("geom"), where
// alpha_beta with alpha+beta = 2k-1 coincides with modified by design, and
// uniform weights in [1,4] ("geomw"), where the constructions genuinely
// part — the size-vs-stretch tradeoff the docs discuss.  Each construction
// is built per fault model it supports (registry metadata decides; skips
// are logged) and verified by verify_fault_sets over a seeded storm per
// scenario: uniform + srlg/ball/adaptive/cascade (fault/scenario.h).
//
// Writes BENCH_e13_shootout.json (one row per algorithm x model x scenario
// x workload); `tools/check_perf_floor.py --section e13` pins max_stretch /
// disconnected_trials / spanner_m per seeded config (bench/ci_perf_floor.json,
// "e13" entries), and the e13_pins ctest case runs both.  Wall-clock columns
// are informational only — the gate pins results.  The storm protocol per
// cell is shootout.h's, shared with E17.

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "shootout.h"
#include "fault/scenario.h"
#include "spanner/registry.h"

namespace {

using namespace ftspan;
using bench::CellResult;
using bench::json_number;

bool write_json(const std::string& path, const std::vector<CellResult>& cells) {
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& c = cells[i];
    out << "  {\"algo\": \"" << c.algo << "\", \"model\": \"" << c.model
        << "\", \"scenario\": \"" << c.scenario << "\", \"graph\": \""
        << c.graph << "\", \"weighted\": " << (c.weighted ? "true" : "false")
        << ", \"alpha\": " << (c.has_ab ? json_number(c.alpha) : "null")
        << ", \"beta\": " << (c.has_ab ? json_number(c.beta) : "null")
        << ", \"n\": " << c.n << ", \"m\": " << c.m << ", \"f\": " << c.f
        << ", \"k\": " << c.k << ", \"trials\": " << c.trials
        << ", \"spanner_m\": " << c.spanner_m
        << ", \"build_seconds\": " << c.build_seconds
        << ", \"arcs_traversed\": " << c.arcs_traversed
        << ", \"exact_searches\": " << c.exact_searches
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

}  // namespace

static int bench_main(const ftspan::Cli& cli) {
  using namespace ftspan;
  const auto seed = static_cast<std::uint64_t>(cli.get_uint("seed", 13));
  const auto n = static_cast<std::size_t>(cli.get_uint("n", 120));
  const auto trials = static_cast<std::uint32_t>(cli.get_uint("trials", 12));
  const auto k = static_cast<std::uint32_t>(cli.get_uint("k", 2));
  const auto f = static_cast<std::uint32_t>(cli.get_uint("f", 2));
  const double alpha = cli.get_double("alpha", 2.0);
  const double beta = cli.get_double("beta", 1.0);
  const double radius = cli.get_double("radius", 0.25);
  const std::string json_path = cli.get("out", "BENCH_e13_shootout.json");
  const bench::ObsFlags obs = bench::obs_flags(cli);

  bench::banner("E13 shootout",
                "the full algorithm zoo (spanner/registry.h) x fault models "
                "x structured scenarios: FT size/stretch tradeoffs on one "
                "seeded workload pair",
                seed);
  obs.start();

  // One geometric topology; the coordinates make the geographic scenarios
  // meaningful and are shared by both workloads and every construction.
  Rng gen_rng(seed);
  std::vector<Point> coords;
  const Graph geom = random_geometric(n, 0.18, gen_rng, &coords);
  const Graph geomw = with_uniform_weights(geom, 1.0, 4.0, gen_rng);

  struct Workload {
    std::string name;
    const Graph* g;
  };
  const Workload workloads[] = {{"geom", &geom}, {"geomw", &geomw}};
  const std::string scenario_names[] = {"uniform", "srlg", "ball", "adaptive",
                                        "cascade"};

  std::vector<CellResult> cells;
  for (const auto& workload : workloads) {
    const Graph& g = *workload.g;
    std::cout << "workload " << workload.name << ": " << g.summary()
              << (g.weighted() ? " (uniform weights in [1,4])"
                               : " (unit weights)")
              << "\n";
    for (const auto model : {FaultModel::vertex, FaultModel::edge}) {
      const SpannerParams params{.k = k, .f = f, .model = model};
      Table table({"construction", "m(H)", "build s", "searches", "scenario",
                   "p50 stretch", "max stretch", "viol", "ok"});
      for (const auto& info : spanner_algos()) {
        if (info.name == "exact") continue;  // == bdpvw picks, slower
        const bool supported = model == FaultModel::vertex ? info.vertex_model
                                                           : info.edge_model;
        if (!supported) {
          std::cout << "  (skipping " << info.name << " under the "
                    << to_string(model) << " model — unsupported)\n";
          continue;
        }
        SpannerAlgoOptions options;
        options.seed = seed + 2;  // randomized algos draw their own Rng
        options.alpha = alpha;
        options.beta = beta;
        const SpannerBuild build = build_spanner(info.name, g, params, options);
        for (const auto& name : scenario_names) {
          ScenarioSpec spec;
          if (const auto kind = parse_scenario_kind(name)) spec.kind = *kind;
          spec.ball_radius = radius;
          spec.coords = coords;
          CellResult cell =
              bench::run_cell(g, build.spanner, params, name, spec, trials,
                       seed + 100 * (model == FaultModel::edge) +
                           1000 * (workload.name == "geomw"));
          cell.algo = info.name;
          cell.graph = workload.name;
          cell.weighted = g.weighted();
          if (info.name == "alpha_beta") {
            cell.has_ab = true;
            cell.alpha = alpha;
            cell.beta = beta;
          }
          cell.build_seconds = build.stats.seconds;
          cell.arcs_traversed = build.stats.arcs_traversed;
          cell.exact_searches = build.stats.exact_searches;
          table.add_row(
              {cell.algo, Table::num(cell.spanner_m),
               Table::num(cell.build_seconds, 3),
               Table::num(static_cast<long long>(cell.exact_searches)),
               cell.scenario, bench::stretch_cell(cell.p50_stretch),
               bench::stretch_cell(cell.max_stretch),
               Table::num(static_cast<long long>(cell.disconnected_trials)),
               cell.ok ? "yes" : "no"});
          cells.push_back(std::move(cell));
        }
      }
      std::cout << "graph=" << workload.name << " model=" << to_string(model)
                << " k=" << k << " f=" << f << " alpha=" << alpha
                << " beta=" << beta << " trials=" << trials << "\n";
      table.print(std::cout);
      std::cout << '\n';
    }
  }

  std::cout
      << "expected shape: FT constructions stay within their bound on every "
         "scenario (alpha_beta within alpha+beta given weights >= 1); "
         "non-FT baselines violate it; bdpvw is the smallest FT spanner "
         "(optimal size, few exact searches thanks to the LBC prefilter); "
         "on the unit-weight workload alpha_beta coincides with modified by "
         "design (alpha+beta = 2k-1).\n";

  if (!write_json(json_path, cells)) {
    std::cerr << "error: cannot write " << json_path << "\n";
    return 1;
  }
  std::cout << "\nwrote " << json_path << "\n";
  return obs.finish() ? 0 : 1;
}

int main(int argc, char** argv) {
  static constexpr std::string_view kFlags[] = {
      "seed", "n", "f", "k", "trials", "radius", "alpha", "beta", "out",
      "trace", "metrics", "trace-ring"};
  return ftspan::bench::run_main(argc, argv, bench_main, kFlags);
}
