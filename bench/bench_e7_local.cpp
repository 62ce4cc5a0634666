// E7 — Theorem 12: the LOCAL construction takes O(log n) rounds and pays
// only an O(log n) size factor over the centralized greedy.
//
// Sweeps n; reports decomposition + spanner-phase rounds (against the
// Delta = O(log n) budget), the number of partitions ell, edge coverage
// (Theorem 11(4): 0 uncovered whp), spanner size, and the size ratio to
// the centralized Algorithm 4 on the same graph.

#include <iostream>

#include "bench_util.h"
#include "core/modified_greedy.h"
#include "distrib/local_spanner.h"
#include "fault/verifier.h"

static int bench_main(const ftspan::Cli& cli) {
  using namespace ftspan;
  using distrib::LocalSpannerConfig;
  const auto seed = static_cast<std::uint64_t>(cli.get_uint("seed", 7));
  const auto n_max = static_cast<std::size_t>(cli.get_uint("n", 512));

  bench::banner("E7 LOCAL model",
                "Theorem 12: O(log n) rounds, size O(f^{1-1/k} n^{1+1/k} "
                "log n) — an O(log n) factor over centralized",
                seed);

  Table table({"n", "m(G)", "rounds(dec)", "rounds(span)", "log2 n", "ell",
               "radius", "uncovered", "m(H)", "m(H)/central", "stretch ok"});
  for (std::size_t n = 64; n <= n_max; n *= 2) {
    Rng rng(seed + n);
    const Graph g = bench::gnp_with_degree(n, 16.0, rng);
    LocalSpannerConfig config;
    config.params = SpannerParams{.k = 2, .f = 1};
    config.decomposition.seed = seed + n;
    const auto build = distrib::local_ft_spanner(g, config);
    const auto central = modified_greedy_spanner(g, config.params);
    Rng verify_rng(seed + n + 1);
    const auto report =
        verify_sampled(g, build.spanner, config.params, 100, verify_rng);
    table.add_row(
        {Table::num(n), Table::num(g.m()),
         Table::num((long long)build.decomposition_stats.rounds),
         Table::num((long long)build.stats.rounds),
         Table::num(std::log2(static_cast<double>(n)), 1),
         Table::num(build.partitions),
         Table::num((long long)build.max_cluster_radius),
         Table::num(build.uncovered_edges), Table::num(build.spanner.m()),
         Table::num(double(build.spanner.m()) / central.spanner.m(), 2),
         report.ok ? "yes" : "VIOLATED"});
  }
  table.print(std::cout);
  std::cout << "\nrounds should track log n (Delta = 8 ln n at beta=0.25), "
               "the size ratio should stay O(log n), uncovered should be 0.\n";

  std::cout << "\n-- f sweep at n=256 (rounds are f-independent; only the "
               "per-cluster spanners grow) --\n";
  Table f_table({"f", "rounds(dec)", "rounds(span)", "m(H)", "m(H)/central",
                 "stretch ok"});
  for (const std::uint32_t f : {1u, 2u, 3u}) {
    Rng rng(seed + 1000 + f);
    const Graph g = bench::gnp_with_degree(256, 16.0, rng);
    LocalSpannerConfig config;
    config.params = SpannerParams{.k = 2, .f = f};
    config.decomposition.seed = seed + 1000 + f;
    const auto build = distrib::local_ft_spanner(g, config);
    const auto central = modified_greedy_spanner(g, config.params);
    Rng verify_rng(seed + 2000 + f);
    const auto report =
        verify_sampled(g, build.spanner, config.params, 100, verify_rng);
    f_table.add_row(
        {Table::num((long long)f),
         Table::num((long long)build.decomposition_stats.rounds),
         Table::num((long long)build.stats.rounds),
         Table::num(build.spanner.m()),
         Table::num(double(build.spanner.m()) / central.spanner.m(), 2),
         report.ok ? "yes" : "VIOLATED"});
  }
  f_table.print(std::cout);
  return 0;
}

int main(int argc, char** argv) {
  return ftspan::bench::run_main(argc, argv, bench_main);
}
