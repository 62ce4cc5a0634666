// E9 — Lemmas 6 and 7, measured: the machinery behind Theorem 8's size
// bound.
//
// Lemma 6: the LBC certificates of the modified greedy form a (2k)-blocking
// set of size <= (2k-1) f |E(H)|.  We build it, validate Definition 2 by
// enumerating all short cycles, and report the per-edge certificate sizes.
//
// Lemma 7: subsampling floor(n / (2(2k-1)f)) nodes and deleting blocked
// edges must leave girth > 2k while keeping Omega(m/(kf)^2) edges.  We run
// repeated trials and report the girth success rate (must be 100%) and the
// kept-edge density against the Moore bound.

#include <iostream>

#include "analysis/blocking_set.h"
#include "analysis/girth.h"
#include "bench_util.h"
#include "core/modified_greedy.h"

static int bench_main(const ftspan::Cli& cli) {
  using namespace ftspan;
  using analysis::lemma7_sample;
  const auto seed = static_cast<std::uint64_t>(cli.get_uint("seed", 9));
  const auto n = static_cast<std::size_t>(cli.get_uint("n", 400));
  const auto trials = static_cast<int>(cli.get_int("trials", 20));

  bench::banner("E9 blocking sets & girth",
                "Lemma 6: certificates are a (2k)-blocking set of size "
                "<= (2k-1) f |E(H)|; Lemma 7: the sampled subgraph has girth "
                "> 2k and Omega(m/(kf)^2) edges",
                seed);

  Table table({"k", "f", "m(H)", "|B|", "(2k-1)f m(H)", "avg|F_e|", "max|F_e|",
               "blocked", "girth>2k %", "avg kept", "m(H)/(8((2k-1)f)^2)"});
  for (const auto& [k, f] : {std::pair{2u, 1u}, {2u, 2u}, {3u, 1u}}) {
    Rng rng(seed + k * 10 + f);
    const Graph g = bench::gnp_with_degree(n, 24.0, rng);
    const SpannerParams params{.k = k, .f = f};
    ModifiedGreedyConfig config;
    config.record_certificates = true;
    const auto build = modified_greedy_spanner(g, params, config);
    const auto blocking = analysis::blocking_set_from_build(build);

    double cert_sum = 0;
    std::size_t cert_max = 0;
    for (const auto& cert : build.certificates) {
      cert_sum += static_cast<double>(cert.ids.size());
      cert_max = std::max(cert_max, cert.ids.size());
    }

    // Definition 2 validation: affordable for 2k <= 6 on sparse H.
    const bool blocked =
        !analysis::find_unblocked_cycle(build.spanner, blocking, 2 * k)
             .has_value();

    int girth_ok = 0;
    double kept_sum = 0;
    Rng sample_rng(seed + 100 + k * 10 + f);
    for (int rep = 0; rep < trials; ++rep) {
      const auto sample = lemma7_sample(build.spanner, blocking, k, f, sample_rng);
      girth_ok += sample.girth_ok ? 1 : 0;
      kept_sum += static_cast<double>(sample.edges_kept);
    }
    const double lemma7_denominator =
        8.0 * std::pow((2.0 * k - 1.0) * f, 2.0);  // Lemma 7's expectation
    table.add_row(
        {Table::num((long long)k), Table::num((long long)f),
         Table::num(build.spanner.m()), Table::num(blocking.size()),
         Table::num((2 * k - 1) * f * build.spanner.m()),
         Table::num(cert_sum / std::max<std::size_t>(1, build.picked.size()), 2),
         Table::num(cert_max), blocked ? "yes" : "NO",
         Table::num(100.0 * girth_ok / trials, 1),
         Table::num(kept_sum / trials, 1),
         Table::num(build.spanner.m() / lemma7_denominator, 1)});
  }
  table.print(std::cout);
  std::cout << "\n|B| must stay below (2k-1) f m(H); blocked must be yes; the "
               "girth rate must be 100%; kept edges should be commensurate "
               "with m(H)/(8((2k-1)f)^2) (Lemma 7's expectation).\n";
  return 0;
}

int main(int argc, char** argv) {
  return ftspan::bench::run_main(argc, argv, bench_main);
}
