// E12 — Theorem 10 ablation: the *only* weighted-case ingredient is the
// nondecreasing-weight scan order.  Running the identical algorithm with
// other orders on weighted inputs must (and does) break the stretch
// guarantee, both on the deterministic 2-path gadget and on random weighted
// graphs.

#include <iostream>

#include "bench_util.h"
#include "core/modified_greedy.h"
#include "fault/verifier.h"

namespace {

using namespace ftspan;

Graph ordering_gadget() {
  Graph g(4, true);
  g.add_edge(0, 2, 10.0);
  g.add_edge(2, 1, 10.0);
  g.add_edge(0, 3, 10.0);
  g.add_edge(3, 1, 10.0);
  g.add_edge(0, 1, 1.0);
  return g;
}

const char* order_name(EdgeOrder order) {
  switch (order) {
    case EdgeOrder::by_weight: return "by_weight (Alg 4)";
    case EdgeOrder::input: return "input order";
    case EdgeOrder::by_weight_desc: return "heaviest-first";
    case EdgeOrder::random: return "random";
  }
  return "?";
}

}  // namespace

static int bench_main(const ftspan::Cli& cli) {
  const auto seed = static_cast<std::uint64_t>(cli.get_uint("seed", 12));
  const auto trials = static_cast<int>(cli.get_int("trials", 30));

  bench::banner("E12 ordering ablation",
                "Theorem 10: sorting by weight is necessary and sufficient; "
                "the same algorithm with other orders violates the stretch",
                seed);

  std::cout << "-- deterministic gadget (two heavy 2-hop detours + light "
               "direct edge), k=2 f=1 --\n";
  Table gadget_table({"order", "m(H)", "keeps light edge", "max stretch",
                      "bound", "valid"});
  const Graph gadget = ordering_gadget();
  const SpannerParams params{.k = 2, .f = 1};
  for (const auto order : {EdgeOrder::by_weight, EdgeOrder::by_weight_desc}) {
    ModifiedGreedyConfig config;
    config.order = order;
    const auto build = modified_greedy_spanner(gadget, params, config);
    const auto report = verify_exhaustive(gadget, build.spanner, params);
    gadget_table.add_row({order_name(order), Table::num(build.spanner.m()),
                          build.spanner.has_edge(0, 1) ? "yes" : "no",
                          Table::num(report.max_stretch, 2), "3",
                          report.ok ? "yes" : "VIOLATED"});
  }
  gadget_table.print(std::cout);

  std::cout << "\n-- random weighted graphs G(14, .35), weights U[1,20], "
               "k=2 f=1, " << trials << " trials --\n";
  Table random_table({"order", "violations", "worst stretch", "avg m(H)"});
  for (const auto order :
       {EdgeOrder::by_weight, EdgeOrder::input, EdgeOrder::by_weight_desc}) {
    int violations = 0;
    double worst = 0, size_sum = 0;
    for (int trial = 0; trial < trials; ++trial) {
      Rng rng(seed + trial);
      const Graph g = with_uniform_weights(gnp(14, 0.35, rng), 1.0, 20.0, rng);
      ModifiedGreedyConfig config;
      config.order = order;
      const auto build = modified_greedy_spanner(g, params, config);
      const auto report = verify_exhaustive(g, build.spanner, params);
      violations += report.ok ? 0 : 1;
      worst = std::max(worst, report.max_stretch);
      size_sum += static_cast<double>(build.spanner.m());
    }
    random_table.add_row({order_name(order),
                          Table::num((long long)violations) + "/" +
                              Table::num((long long)trials),
                          Table::num(worst, 2), Table::num(size_sum / trials, 1)});
  }
  random_table.print(std::cout);
  std::cout << "\nby_weight must show 0 violations; the unsound orders "
               "show both violations and (ironically) larger spanners.\n";
  return 0;
}

int main(int argc, char** argv) {
  return ftspan::bench::run_main(argc, argv, bench_main);
}
