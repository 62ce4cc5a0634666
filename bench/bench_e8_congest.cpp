// E8 — Theorems 14/15: CONGEST constructions.
//
// Part 1 (Theorem 14): distributed Baswana-Sen round counts vs the O(k^2)
// schedule, with CONGEST bit budgets enforced by the simulator.
// Part 2 (Theorem 15): the DK11xBS fault-tolerant spanner — phase-1 rounds
// (O(f^2(log f + log log n))), phase-2 physical rounds after congestion
// scheduling (O(k^2 f log n)), observed max edge congestion (O(f log n)
// whp), and the spanner size (O(k f^{2-1/k} n^{1+1/k} log n)).

#include <cmath>
#include <iostream>

#include "bench_util.h"
#include "distrib/congest_bs.h"
#include "distrib/congest_spanner.h"
#include "fault/verifier.h"

static int bench_main(const ftspan::Cli& cli) {
  using namespace ftspan;
  const auto seed = static_cast<std::uint64_t>(cli.get_uint("seed", 8));
  const auto n_max = static_cast<std::size_t>(cli.get_uint("n", 256));

  bench::banner("E8 CONGEST model",
                "Theorem 14: BS in O(k^2) rounds; Theorem 15: FT spanner in "
                "O(f^2(log f+loglog n) + k^2 f log n) rounds",
                seed);

  std::cout << "-- Theorem 14: Baswana-Sen rounds vs k --\n";
  Table bs_table({"n", "k", "schedule", "rounds", "max edge bits", "B", "m(H)"});
  for (const std::uint32_t k : {2u, 3u, 4u}) {
    Rng rng(seed + k);
    const Graph g = bench::gnp_with_degree(128, 12.0, rng);
    const auto result = distrib::congest_baswana_sen(g, k, seed + k);
    bs_table.add_row(
        {Table::num(g.n()), Table::num((long long)k),
         Table::num((long long)distrib::congest_bs_schedule_rounds(k)),
         Table::num((long long)result.stats.rounds),
         Table::num((long long)result.stats.max_edge_bits),
         Table::num(
             (long long)distrib::ModelLimits::congest(g.n()).bits_per_edge_round),
         Table::num(result.spanner.m())});
  }
  bs_table.print(std::cout);

  std::cout << "\n-- Theorem 15: FT spanner, n sweep (k=2, f=2) --\n";
  Table n_table({"n", "m(G)", "J", "phase1", "phase2", "virtual", "congestion",
                 "f log n", "m(H)", "stretch ok"});
  for (std::size_t n = 64; n <= n_max; n *= 2) {
    Rng rng(seed + n);
    const Graph g = bench::gnp_with_degree(n, 12.0, rng);
    distrib::CongestFtConfig config;
    config.params = SpannerParams{.k = 2, .f = 2};
    config.iteration_factor = 2.0;
    config.seed = seed + n;
    const auto result = distrib::congest_ft_spanner(g, config);
    Rng verify_rng(seed + n + 1);
    const auto report =
        verify_sampled(g, result.spanner, config.params, 80, verify_rng);
    n_table.add_row(
        {Table::num(n), Table::num(g.m()), Table::num((long long)result.instances),
         Table::num((long long)result.phase1_rounds),
         Table::num((long long)result.phase2_rounds),
         Table::num((long long)result.virtual_rounds),
         Table::num((long long)result.max_edge_congestion),
         Table::num(2.0 * std::log(static_cast<double>(n)), 1),
         Table::num(result.spanner.m()), report.ok ? "yes" : "VIOLATED"});
  }
  n_table.print(std::cout);

  std::cout << "\n-- Theorem 15: FT spanner, f sweep (n=128, k=2) --\n";
  Table f_table({"f", "J", "phase1", "phase2", "congestion", "m(H)",
                 "stretch ok"});
  for (const std::uint32_t f : {1u, 2u, 3u}) {
    Rng rng(seed + 100 + f);
    const Graph g = bench::gnp_with_degree(128, 12.0, rng);
    distrib::CongestFtConfig config;
    config.params = SpannerParams{.k = 2, .f = f};
    config.iteration_factor = f == 1 ? 8.0 : 2.0;  // f=1 needs the constant
    config.seed = seed + 100 + f;
    const auto result = distrib::congest_ft_spanner(g, config);
    Rng verify_rng(seed + 200 + f);
    const auto report =
        verify_sampled(g, result.spanner, config.params, 80, verify_rng);
    f_table.add_row(
        {Table::num((long long)f), Table::num((long long)result.instances),
         Table::num((long long)result.phase1_rounds),
         Table::num((long long)result.phase2_rounds),
         Table::num((long long)result.max_edge_congestion),
         Table::num(result.spanner.m()), report.ok ? "yes" : "VIOLATED"});
  }
  f_table.print(std::cout);
  std::cout << "\nphase2 ~= virtual * congestion; congestion should track "
               "f log n; phase1 grows with f^2.\n";
  return 0;
}

int main(int argc, char** argv) {
  return ftspan::bench::run_main(argc, argv, bench_main);
}
