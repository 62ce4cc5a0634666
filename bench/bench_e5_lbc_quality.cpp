// E5 — Theorem 4: Algorithm 2 decides the LBC(t, alpha) gap problem.
//
// On random small graphs, compares Algorithm 2's answer with the exact
// minimum length-bounded cut (hitting-set branch-and-bound):
//   * completeness: min-cut <= alpha   => YES  (must never fail),
//   * soundness:    answered NO        => min-cut > alpha (must never fail),
//   * gap zone:     alpha < min-cut <= alpha*t — either answer is allowed;
//     we report how often the heuristic still says YES, and the certificate
//     size ratio |F_LBC| / min-cut for the YES answers.

#include <iostream>

#include "bench_util.h"
#include "core/fault_search.h"
#include "core/lbc.h"

static int bench_main(const ftspan::Cli& cli) {
  using namespace ftspan;
  const auto seed = static_cast<std::uint64_t>(cli.get_uint("seed", 5));
  const auto trials = static_cast<int>(cli.get_int("trials", 300));

  bench::banner("E5 LBC quality",
                "Theorem 4: YES when a length-t cut of size <= alpha exists; "
                "NO only when every cut exceeds alpha (gap t)",
                seed);

  Table table({"t", "alpha", "cases", "completeness", "soundness",
               "gap-zone YES%", "avg |F|/opt"});
  Rng rng(seed);
  for (const std::uint32_t t : {3u, 5u}) {
    for (const std::uint32_t alpha : {1u, 2u}) {
      int cases = 0, complete_ok = 0, complete_all = 0;
      int sound_ok = 0, sound_all = 0;
      int gap_yes = 0, gap_all = 0;
      double ratio_sum = 0;
      int ratio_count = 0;
      FaultSetSearch exact(FaultModel::vertex);
      LbcSolver lbc(FaultModel::vertex);
      for (int trial = 0; trial < trials; ++trial) {
        const Graph g = gnp(16, 0.22, rng);
        const VertexId u = 0, v = 1;
        if (g.has_edge(u, v)) continue;
        const auto min_cut =
            exact.find_minimum_cut(g, u, v, PathBound::hops(t), alpha * t + 2);
        if (!min_cut) continue;  // no cut exists at all (dense window)
        ++cases;
        const auto opt = static_cast<std::uint32_t>(min_cut->ids.size());
        const auto result = lbc.decide(g, u, v, t, alpha);
        if (opt <= alpha) {
          ++complete_all;
          complete_ok += result.yes ? 1 : 0;
        } else if (opt > alpha * t) {
          ++sound_all;
          sound_ok += result.yes ? 0 : 1;
        } else {
          ++gap_all;
          gap_yes += result.yes ? 1 : 0;
        }
        if (result.yes && opt > 0) {
          ratio_sum += static_cast<double>(result.cut.ids.size()) / opt;
          ++ratio_count;
        }
      }
      table.add_row(
          {Table::num(static_cast<long long>(t)),
           Table::num(static_cast<long long>(alpha)), Table::num((long long)cases),
           complete_all == 0
               ? "-"
               : Table::num(100.0 * complete_ok / complete_all, 1) + "%",
           sound_all == 0 ? "-"
                          : Table::num(100.0 * sound_ok / sound_all, 1) + "%",
           gap_all == 0 ? "-" : Table::num(100.0 * gap_yes / gap_all, 1) + "%",
           ratio_count == 0 ? "-" : Table::num(ratio_sum / ratio_count, 2)});
    }
  }
  table.print(std::cout);
  std::cout << "\ncompleteness and soundness must both read 100%; the gap "
               "zone and certificate-size ratio quantify the t-approximation "
               "slack the paper pays (the k factor in Theorem 2).\n";
  return 0;
}

int main(int argc, char** argv) {
  return ftspan::bench::run_main(argc, argv, bench_main);
}
