// E2 — Theorem 8, f-dependence: |E(H)| grows like f^{1-1/k} (sublinear).
//
// Fixes n and sweeps f.  Prints the size, the marginal growth factor per
// +1 fault, and a power fit |H| ~ f^a whose exponent should stay below 1
// and near 1 - 1/k once f-dependent terms dominate.

#include <iostream>
#include <vector>

#include "analysis/scaling.h"
#include "bench_util.h"
#include "core/modified_greedy.h"

static int bench_main(const ftspan::Cli& cli) {
  using namespace ftspan;
  const auto seed = static_cast<std::uint64_t>(cli.get_uint("seed", 2));
  const auto n = static_cast<std::size_t>(cli.get_uint("n", 512));
  const auto f_max = static_cast<std::uint32_t>(cli.get_uint("f", 8));

  bench::banner("E2 size-vs-f",
                "Theorem 8: the f-dependence is f^{1-1/k} — strictly "
                "sublinear growth in the number of tolerated faults",
                seed);

  for (const std::uint32_t k : {2u, 3u}) {
    Rng rng(seed + k);
    const Graph g = bench::gnp_with_degree(n, 48.0, rng);
    Table table({"k", "f", "m(G)", "m(H)", "growth vs f-1", "f^(1-1/k)"});
    std::vector<double> xs, ys;
    std::size_t prev = 0;
    for (std::uint32_t f = 0; f <= f_max; ++f) {
      const auto build = modified_greedy_spanner(g, SpannerParams{.k = k, .f = f});
      table.add_row(
          {Table::num(static_cast<long long>(k)),
           Table::num(static_cast<long long>(f)), Table::num(g.m()),
           Table::num(build.spanner.m()),
           prev == 0 ? "-" : Table::num(double(build.spanner.m()) / prev, 3),
           f == 0 ? "-" : Table::num(std::pow(f, 1.0 - 1.0 / k), 3)});
      if (f >= 1) {
        xs.push_back(f);
        ys.push_back(static_cast<double>(build.spanner.m()));
      }
      prev = build.spanner.m();
    }
    table.print(std::cout);
    const auto fit = analysis::fit_power_law(xs, ys);
    std::cout << "fitted |H| ~ f^" << Table::num(fit.exponent, 3)
              << "  (theorem: sublinear, tending to f^"
              << Table::num(1.0 - 1.0 / k, 3) << "; R^2="
              << Table::num(fit.r_squared, 3) << ")\n\n";
  }
  return 0;
}

int main(int argc, char** argv) {
  return ftspan::bench::run_main(argc, argv, bench_main);
}
