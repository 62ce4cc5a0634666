// E14 — near-tightness of Theorem 8 against the [BDPW18]-style lower bound.
//
// Blowup instances: base = incidence graph of PG(2,q) (girth 6, extremal
// for k=2), copies = f+1.  Any f-VFT 3-spanner must keep >= (f+1) m(base)
// edges (each complete-bipartite bundle needs a matching of size f+1).
// The table sandwiches the greedy's output between that lower bound and
// Theorem 8's upper bound — the gap is the paper's k-factor plus constants.

#include <iostream>

#include "bench_util.h"
#include "core/modified_greedy.h"
#include "core/result.h"
#include "fault/verifier.h"
#include "graph/extremal.h"

static int bench_main(const ftspan::Cli& cli) {
  using namespace ftspan;
  const auto seed = static_cast<std::uint64_t>(cli.get_uint("seed", 14));

  bench::banner("E14 lower-bound instances",
                "size optimality: greedy output vs the (f+1)m(base) blowup "
                "lower bound and the Theorem 8 upper bound (k=2)",
                seed);

  Table table({"q", "f", "n", "m(G)", "lower bound", "m(H)", "m(H)/LB",
               "UB ratio", "ft ok"});
  for (const std::uint32_t q : {2u, 3u, 5u}) {
    const Graph base = projective_plane_incidence(q);
    for (const std::uint32_t f : {1u, 2u}) {
      const Graph g = blowup_graph(base, f + 1);
      const SpannerParams params{.k = 2, .f = f};
      const auto build = modified_greedy_spanner(g, params);
      const auto lb = blowup_spanner_lower_bound(base, f);
      Rng rng(seed + q * 10 + f);
      const auto report = verify_sampled(g, build.spanner, params, 60, rng);
      table.add_row(
          {Table::num((long long)q), Table::num((long long)f),
           Table::num(g.n()), Table::num(g.m()), Table::num(lb),
           Table::num(build.spanner.m()),
           Table::num(static_cast<double>(build.spanner.m()) / lb, 2),
           Table::num(build.spanner.m() /
                          theorem8_size_bound(g.n(), params.k, params.f),
                      3),
           report.ok ? "yes" : "VIOLATED"});
    }
  }
  table.print(std::cout);
  std::cout << "\nm(H)/LB close to 1 means the greedy is near the "
               "information-theoretic minimum on these instances; the "
               "Theorem 8 ratio shows how loose the worst-case bound is "
               "here.\n";
  return 0;
}

int main(int argc, char** argv) {
  return ftspan::bench::run_main(argc, argv, bench_main);
}
