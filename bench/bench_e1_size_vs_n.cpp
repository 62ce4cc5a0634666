// E1 — Theorem 8: |E(H)| = O(k f^{1-1/k} n^{1+1/k}).
//
// Sweeps n on G(n, p) (constant average degree scaled so the input stays
// dense enough to sparsify) and on random geometric graphs, prints the
// spanner size, the ratio to the theorem's n^{1+1/k} term, and a log-log
// power fit of |H| vs n whose exponent should approach 1 + 1/k.

#include <iostream>
#include <vector>

#include "analysis/scaling.h"
#include "bench_util.h"
#include "core/modified_greedy.h"
#include "core/result.h"

namespace {

using namespace ftspan;

void sweep(const std::string& family, std::uint32_t k, std::uint32_t f,
           const std::vector<std::size_t>& ns, std::uint64_t seed) {
  Table table({"family", "k", "f", "n", "m(G)", "m(H)", "m(H)/n^(1+1/k)",
               "bound-ratio", "secs"});
  std::vector<double> xs, ys;
  for (const auto n : ns) {
    Rng rng(seed + n);
    Graph g;
    if (family == "gnp") {
      g = bench::gnp_with_degree(n, 24.0, rng);
    } else {
      std::vector<Point> pts;
      // radius ~ sqrt(24/(pi n)) keeps average degree near 24.
      const double radius = std::sqrt(24.0 / (3.14159265 * n));
      g = random_geometric(n, radius, rng, &pts);
    }
    const SpannerParams params{.k = k, .f = f};
    const auto build = modified_greedy_spanner(g, params);
    const double n_term = std::pow(static_cast<double>(n), 1.0 + 1.0 / k);
    table.add_row({family, Table::num(static_cast<long long>(k)),
                   Table::num(static_cast<long long>(f)), Table::num(n),
                   Table::num(g.m()), Table::num(build.spanner.m()),
                   Table::num(build.spanner.m() / n_term, 3),
                   Table::num(build.spanner.m() / theorem8_size_bound(n, k, f), 3),
                   Table::num(build.stats.seconds, 2)});
    xs.push_back(static_cast<double>(n));
    ys.push_back(static_cast<double>(build.spanner.m()));
  }
  table.print(std::cout);
  const auto fit = analysis::fit_power_law(xs, ys);
  std::cout << "fitted |H| ~ n^" << Table::num(fit.exponent, 3)
            << "  (theorem: <= n^" << Table::num(1.0 + 1.0 / k, 3)
            << " growth in n; R^2=" << Table::num(fit.r_squared, 3) << ")\n\n";
}

}  // namespace

static int bench_main(const ftspan::Cli& cli) {
  using namespace ftspan;
  const auto seed = static_cast<std::uint64_t>(cli.get_uint("seed", 1));
  const auto n_max = static_cast<std::size_t>(cli.get_uint("n", 1024));

  bench::banner("E1 size-vs-n",
                "Theorem 8: |E(H)| = O(k f^{1-1/k} n^{1+1/k}); growth in n "
                "should fit n^{1+1/k}",
                seed);

  std::vector<std::size_t> ns;
  for (std::size_t n = 128; n <= n_max; n *= 2) ns.push_back(n);

  sweep("gnp", 2, 1, ns, seed);
  sweep("gnp", 2, 2, ns, seed + 1);
  sweep("gnp", 3, 1, ns, seed + 2);
  sweep("geometric", 2, 1, ns, seed + 3);
  return 0;
}

int main(int argc, char** argv) {
  return ftspan::bench::run_main(argc, argv, bench_main);
}
