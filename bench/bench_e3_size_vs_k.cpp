// E3 — Theorem 8, k-dependence: the size-stretch tradeoff
// k * f^{1-1/k} * n^{1+1/k}.  Larger stretch buys sparser spanners until
// the leading k factor and the shrinking n^{1/k} term balance.

#include <iostream>

#include "bench_util.h"
#include "core/modified_greedy.h"
#include "core/result.h"

static int bench_main(const ftspan::Cli& cli) {
  using namespace ftspan;
  const auto seed = static_cast<std::uint64_t>(cli.get_uint("seed", 3));
  const auto n = static_cast<std::size_t>(cli.get_uint("n", 512));
  const auto k_max = static_cast<std::uint32_t>(cli.get_uint("k", 6));

  bench::banner("E3 size-vs-k",
                "Theorem 8: size k f^{1-1/k} n^{1+1/k}; growing the stretch "
                "2k-1 sparsifies until the k-factor bites",
                seed);

  for (const std::uint32_t f : {1u, 2u}) {
    Rng rng(seed + f);
    const Graph g = bench::gnp_with_degree(n, 48.0, rng);
    Table table({"f", "k", "stretch", "m(G)", "m(H)", "m(H)/m(G)",
                 "bound-ratio"});
    for (std::uint32_t k = 1; k <= k_max; ++k) {
      const auto build = modified_greedy_spanner(g, SpannerParams{.k = k, .f = f});
      table.add_row(
          {Table::num(static_cast<long long>(f)),
           Table::num(static_cast<long long>(k)),
           Table::num(static_cast<long long>(2 * k - 1)), Table::num(g.m()),
           Table::num(build.spanner.m()),
           Table::num(double(build.spanner.m()) / g.m(), 3),
           Table::num(build.spanner.m() / theorem8_size_bound(n, k, f), 3)});
    }
    table.print(std::cout);
    std::cout << '\n';
  }
  return 0;
}

int main(int argc, char** argv) {
  return ftspan::bench::run_main(argc, argv, bench_main);
}
