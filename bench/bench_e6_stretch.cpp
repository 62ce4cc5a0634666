// E6 — Theorems 5 and 10: the modified greedy output is an f-FT
// (2k-1)-spanner.  Measures the worst observed stretch under exhaustive
// fault enumeration (small instances) and adversarial fault sampling
// (larger ones); every row must stay at or below the bound 2k-1.

#include <iostream>

#include "bench_util.h"
#include "core/modified_greedy.h"
#include "fault/verifier.h"

static int bench_main(const ftspan::Cli& cli) {
  using namespace ftspan;
  const auto seed = static_cast<std::uint64_t>(cli.get_uint("seed", 6));
  const auto trials = static_cast<std::uint32_t>(cli.get_uint("trials", 200));

  bench::banner("E6 stretch validation",
                "Theorems 5/10: d_{H\\F}(u,v) <= (2k-1) d_{G\\F}(u,v) for all "
                "|F| <= f, weighted and unweighted, VFT and EFT",
                seed);

  Table table({"workload", "model", "k", "f", "mode", "fault sets", "pairs",
               "max stretch", "bound", "ok"});

  auto run = [&](const std::string& name, const Graph& g, std::uint32_t k,
                 std::uint32_t f, FaultModel model, bool exhaustive,
                 std::uint64_t s) {
    const SpannerParams params{.k = k, .f = f, .model = model};
    const auto build = modified_greedy_spanner(g, params);
    StretchReport report;
    if (exhaustive) {
      report = verify_exhaustive(g, build.spanner, params);
    } else {
      Rng rng(s);
      report = verify_sampled(g, build.spanner, params, trials, rng);
    }
    table.add_row({name, to_string(model), Table::num((long long)k),
                   Table::num((long long)f),
                   exhaustive ? "exhaustive" : "adversarial",
                   Table::num(report.fault_sets_checked),
                   Table::num(report.pairs_checked),
                   Table::num(report.max_stretch, 3),
                   Table::num((long long)(2 * k - 1)),
                   report.ok ? "yes" : "VIOLATED"});
  };

  {
    Rng rng(seed);
    const Graph g = gnp(12, 0.4, rng);
    run("gnp(12,.4)", g, 2, 1, FaultModel::vertex, true, seed + 1);
    run("gnp(12,.4)", g, 2, 1, FaultModel::edge, true, seed + 2);
    run("gnp(12,.4)", g, 2, 2, FaultModel::vertex, true, seed + 3);
  }
  {
    Rng rng(seed + 10);
    const Graph g = bench::gnp_with_degree(200, 16.0, rng);
    run("gnp(200,d16)", g, 2, 1, FaultModel::vertex, false, seed + 11);
    run("gnp(200,d16)", g, 2, 3, FaultModel::vertex, false, seed + 12);
    run("gnp(200,d16)", g, 3, 2, FaultModel::edge, false, seed + 13);
  }
  {
    Rng rng(seed + 20);
    std::vector<Point> pts;
    const Graph topo = random_geometric(200, 0.18, rng, &pts);
    const Graph g = with_euclidean_weights(topo, pts);
    run("geometric-w(200)", g, 2, 2, FaultModel::vertex, false, seed + 21);
    run("geometric-w(200)", g, 2, 2, FaultModel::edge, false, seed + 22);
  }
  {
    const Graph g = torus_graph(12, 12);
    run("torus(12x12)", g, 2, 1, FaultModel::vertex, false, seed + 31);
  }
  {
    const Graph g = hypercube_graph(8);
    run("hypercube(8)", g, 2, 2, FaultModel::vertex, false, seed + 41);
  }

  table.print(std::cout);
  std::cout << "\nevery row must report ok=yes and max stretch <= 2k-1.\n";
  return 0;
}

int main(int argc, char** argv) {
  return ftspan::bench::run_main(argc, argv, bench_main);
}
