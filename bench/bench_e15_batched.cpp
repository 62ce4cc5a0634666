// E15 — Section 6 ablation: what parallelism costs the greedy.
//
// The batched greedy tests whole batches against one snapshot of H (all
// decisions inside a batch are independent, i.e. parallelizable) and stays
// correct for every batch size; the price is spanner size, because
// Lemma 6's blocking-set argument needs sequential decisions.  The table
// sweeps the batch size from 1 (= Algorithm 4) to m (= keep everything)
// and reports size, the implied parallel depth (number of batches), and
// validation.

#include <iostream>

#include "bench_util.h"
#include "core/batched_greedy.h"
#include "fault/verifier.h"

static int bench_main(const ftspan::Cli& cli) {
  using namespace ftspan;
  const auto seed = static_cast<std::uint64_t>(cli.get_uint("seed", 15));
  const auto n = static_cast<std::size_t>(cli.get_uint("n", 300));

  bench::banner("E15 batched greedy",
                "Section 6: the greedy is hard to parallelize — batching "
                "decisions keeps correctness but inflates the size",
                seed);

  Rng rng(seed);
  const Graph g = bench::gnp_with_degree(n, 24.0, rng);
  const SpannerParams params{.k = 2, .f = 1};

  Table table({"batch size", "parallel depth", "m(H)", "vs sequential",
               "secs", "ft ok"});
  std::size_t sequential_size = 0;
  for (const std::size_t batch :
       {std::size_t{1}, std::size_t{4}, std::size_t{16}, std::size_t{64},
        std::size_t{256}, g.m()}) {
    const auto build = batched_greedy_spanner(g, params, batch);
    if (batch == 1) sequential_size = build.spanner.m();
    Rng verify_rng(seed + batch);
    const auto report = verify_sampled(g, build.spanner, params, 60, verify_rng);
    table.add_row(
        {Table::num(batch), Table::num((g.m() + batch - 1) / batch),
         Table::num(build.spanner.m()),
         Table::num(static_cast<double>(build.spanner.m()) / sequential_size, 2),
         Table::num(build.stats.seconds, 3), report.ok ? "yes" : "VIOLATED"});
  }
  table.print(std::cout);
  std::cout << "\nparallel depth shrinks linearly with the batch size while "
               "the size ratio grows toward keeping all of G — quantifying "
               "the open problem's difficulty.\n";
  return 0;
}

int main(int argc, char** argv) {
  return ftspan::bench::run_main(argc, argv, bench_main);
}
