// E11 — Section 2: edge vs vertex fault tolerance.  The paper proves the
// same O(k f^{1-1/k} n^{1+1/k}) upper bound for both models (and leaves the
// EFT lower bound open).  Side-by-side sizes of the two models across f.

#include <iostream>

#include "bench_util.h"
#include "core/modified_greedy.h"

static int bench_main(const ftspan::Cli& cli) {
  using namespace ftspan;
  const auto seed = static_cast<std::uint64_t>(cli.get_uint("seed", 11));
  const auto n = static_cast<std::size_t>(cli.get_uint("n", 400));

  bench::banner("E11 EFT vs VFT",
                "Section 2 / open problem: both models obey the same upper "
                "bound; how do their sizes actually compare?",
                seed);

  for (const std::uint32_t k : {2u, 3u}) {
    Rng rng(seed + k);
    const Graph g = bench::gnp_with_degree(n, 32.0, rng);
    Table table({"k", "f", "m(G)", "m(VFT)", "m(EFT)", "EFT/VFT"});
    for (std::uint32_t f = 1; f <= 6; ++f) {
      const auto vft = modified_greedy_spanner(
          g, SpannerParams{.k = k, .f = f, .model = FaultModel::vertex});
      const auto eft = modified_greedy_spanner(
          g, SpannerParams{.k = k, .f = f, .model = FaultModel::edge});
      table.add_row({Table::num((long long)k), Table::num((long long)f),
                     Table::num(g.m()), Table::num(vft.spanner.m()),
                     Table::num(eft.spanner.m()),
                     Table::num(double(eft.spanner.m()) / vft.spanner.m(), 3)});
    }
    table.print(std::cout);
    std::cout << '\n';
  }
  std::cout << "the EFT/VFT ratio staying below ~1 is consistent with the "
               "conjecture that edge faults are no harder than vertex "
               "faults (the open Omega(f^{(1-1/k)/2}) vs O(f^{1-1/k}) gap).\n";
  return 0;
}

int main(int argc, char** argv) {
  return ftspan::bench::run_main(argc, argv, bench_main);
}
