// E10 — Section 1.1: the price of polynomial time.  The modified greedy is
// at most a factor ~k larger than the exponential-time greedy of
// [BDPW18, BP19]; side-by-side sizes and times on instances small enough
// for the exact algorithm.

#include <iostream>

#include "bench_util.h"
#include "core/greedy_exact.h"
#include "core/modified_greedy.h"
#include "util/timer.h"

static int bench_main(const ftspan::Cli& cli) {
  using namespace ftspan;
  const auto seed = static_cast<std::uint64_t>(cli.get_uint("seed", 10));
  const auto trials = static_cast<int>(cli.get_int("trials", 5));

  bench::banner("E10 exact vs modified greedy",
                "Theorem 2 discussion: polynomial time costs only ~k in "
                "size; exponential time explodes already at toy scale",
                seed);

  Table table({"n", "k", "f", "m(G)", "m(exact)", "m(modified)", "size ratio",
               "t(exact) ms", "t(mod) ms", "speedup"});
  for (const auto& [n, k, f] :
       {std::tuple{12u, 2u, 1u}, {12u, 2u, 2u}, {16u, 2u, 1u}, {16u, 2u, 2u},
        {20u, 2u, 1u}, {24u, 2u, 2u}, {16u, 3u, 1u}}) {
    double m_exact = 0, m_mod = 0, t_exact = 0, t_mod = 0, m_g = 0;
    for (int trial = 0; trial < trials; ++trial) {
      Rng rng(seed + n * 100 + k * 10 + f + trial);
      const Graph g = gnp(n, 0.4, rng);
      m_g += static_cast<double>(g.m());
      const SpannerParams params{.k = k, .f = f};
      const auto exact = exact_greedy_spanner(g, params);
      const auto modified = modified_greedy_spanner(g, params);
      m_exact += static_cast<double>(exact.spanner.m());
      m_mod += static_cast<double>(modified.spanner.m());
      t_exact += exact.stats.seconds * 1e3;
      t_mod += modified.stats.seconds * 1e3;
    }
    table.add_row(
        {Table::num((long long)n), Table::num((long long)k),
         Table::num((long long)f), Table::num(m_g / trials, 1),
         Table::num(m_exact / trials, 1), Table::num(m_mod / trials, 1),
         Table::num(m_mod / std::max(1.0, m_exact), 2),
         Table::num(t_exact / trials, 2), Table::num(t_mod / trials, 2),
         Table::num(t_exact / std::max(1e-6, t_mod), 1) + "x"});
  }
  table.print(std::cout);
  std::cout << "\nsize ratio should hover around 1..k (the paper's k-factor "
               "is a worst case); the speedup column grows with n and f.\n";
  return 0;
}

int main(int argc, char** argv) {
  return ftspan::bench::run_main(argc, argv, bench_main);
}
