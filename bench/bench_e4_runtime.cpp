// E4 — Theorem 9 vs the exponential baseline: the modified greedy runs in
// polynomial time O(m k f^{2-1/k} n^{1+1/k}) while Algorithm 1's decision
// step is exponential in f.
//
// Sweeps the modified greedy over growing (n, f, k) configs (plus the exact
// greedy on tiny inputs for contrast) on the calling thread, printing a
// human table and writing machine-readable results to BENCH_e4_runtime.json
// so successive changes (and the CI perf lane) can track the perf
// trajectory of the hot path.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/greedy_exact.h"
#include "core/modified_greedy.h"
#include "core/result.h"
#include "util/timer.h"

namespace {

using namespace ftspan;

struct RunResult {
  std::string algo;
  std::size_t n = 0;
  std::size_t m = 0;
  std::uint32_t f = 0;
  std::uint32_t k = 0;
  std::size_t spanner_m = 0;
  double seconds = 0.0;      // spanner build only (best of reps)
  double gen_seconds = 0.0;  // input-graph construction, reported separately
  std::uint64_t oracle_calls = 0;
  std::uint64_t sweeps = 0;
  std::uint64_t dedicated_masked_sweeps = 0;
  std::uint64_t dedicated_masked_arcs = 0;
  std::uint64_t arcs_traversed = 0;
  std::uint64_t arena_bytes = 0;
};

/// Best-of-`reps` timing of one greedy build (min is the stablest statistic
/// for a deterministic workload on a shared machine).
RunResult run_config(const std::string& algo, std::size_t n, std::uint32_t f,
                     std::uint32_t k, std::uint32_t reps, std::uint64_t seed) {
  Rng rng(seed + n);
  const auto [g, gen_seconds] =
      bench::timed_gen([&] { return bench::gnp_with_degree(n, 16.0, rng); });
  RunResult out;
  out.gen_seconds = gen_seconds;
  out.algo = algo;
  out.n = n;
  out.m = g.m();
  out.f = f;
  out.k = k;
  out.seconds = std::numeric_limits<double>::infinity();
  for (std::uint32_t rep = 0; rep < reps; ++rep) {
    const Timer timer;
    const SpannerBuild build =
        algo == "exact"
            ? exact_greedy_spanner(g, SpannerParams{.k = k, .f = f})
            : modified_greedy_spanner(g, SpannerParams{.k = k, .f = f});
    const double secs = timer.seconds();
    if (secs < out.seconds) {
      out.seconds = secs;
      out.spanner_m = build.spanner.m();
      out.oracle_calls = build.stats.oracle_calls;
      out.sweeps = build.stats.search_sweeps;
      out.dedicated_masked_sweeps = build.stats.dedicated_masked_sweeps;
      out.dedicated_masked_arcs = build.stats.dedicated_masked_arcs;
      out.arcs_traversed = build.stats.arcs_traversed;
      out.arena_bytes = build.stats.arena_bytes;
    }
  }
  return out;
}

/// One JSON row per config.  "threads" is always 1 (builds run on the
/// calling thread); it stays in the schema because the CI floor entries
/// (bench/ci_perf_floor.json) are keyed on it.
bool write_json(const std::string& path, const std::vector<RunResult>& results) {
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    out << "  {\"algo\": \"" << r.algo << "\", \"n\": " << r.n
        << ", \"m\": " << r.m << ", \"f\": " << r.f << ", \"k\": " << r.k
        << ", \"threads\": 1"
        << ", \"spanner_m\": " << r.spanner_m << ", \"seconds\": " << r.seconds
        << ", \"gen_seconds\": " << r.gen_seconds
        << ", \"oracle_calls\": " << r.oracle_calls
        << ", \"sweeps\": " << r.sweeps
        << ", \"dedicated_masked_sweeps\": " << r.dedicated_masked_sweeps
        << ", \"dedicated_masked_arcs\": " << r.dedicated_masked_arcs
        << ", \"arcs_traversed\": " << r.arcs_traversed
        << ", \"arena_bytes\": " << r.arena_bytes << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "]\n";
  return out.flush().good();
}

}  // namespace

static int bench_main(const ftspan::Cli& cli) {
  using namespace ftspan;
  const auto seed = static_cast<std::uint64_t>(cli.get_uint("seed", 42));
  const auto reps = static_cast<std::uint32_t>(
      std::max<std::int64_t>(1, cli.get_int("reps", 3)));
  const auto json_path = cli.get("out", "BENCH_e4_runtime.json");
  const bench::ObsFlags obs = bench::obs_flags(cli);

  bench::banner("E4 runtime",
                "Theorem 9: modified greedy is polynomial while the exact "
                "greedy's decision step is exponential in f",
                seed);
  // Traced runs are for inspection, not for floors: the span recording costs
  // wall-clock, so CI gates only untraced runs.
  obs.start();

  std::vector<RunResult> results;
  // Modified greedy: poly scaling in n and f.  The f=0 row is the plain
  // greedy (one sweep per decision); the last config is the large one
  // tracked for hot-path speedups across PRs.
  const struct { std::size_t n; std::uint32_t f, k; } modified[] = {
      {128, 1, 2},  {256, 1, 2}, {512, 1, 2},  {512, 0, 2},  {128, 2, 2},
      {128, 4, 2},  {512, 2, 3}, {1024, 2, 2}, {2048, 2, 2},
  };
  for (const auto& c : modified)
    results.push_back(run_config("modified", c.n, c.f, c.k, reps, seed));

  // Exact greedy: the exponential baseline, feasible only on tiny inputs.
  const struct { std::size_t n; std::uint32_t f, k; } exact[] = {
      {16, 1, 2}, {16, 2, 2}, {32, 1, 2},
  };
  for (const auto& c : exact)
    results.push_back(run_config("exact", c.n, c.f, c.k, reps, seed));

  Table table({"algo", "n", "m(G)", "f", "k", "m(H)", "secs", "oracle-calls",
               "sweeps", "masked-sweeps", "masked-arcs", "arcs", "arena-B"});
  const auto num = [](std::uint64_t v) {
    return Table::num(static_cast<long long>(v));
  };
  for (const auto& r : results)
    table.add_row({r.algo, Table::num(r.n), Table::num(r.m), num(r.f),
                   num(r.k), Table::num(r.spanner_m), Table::num(r.seconds, 4),
                   num(r.oracle_calls), num(r.sweeps),
                   num(r.dedicated_masked_sweeps),
                   num(r.dedicated_masked_arcs), num(r.arcs_traversed),
                   num(r.arena_bytes)});
  table.print(std::cout);

  if (!write_json(json_path, results)) {
    std::cerr << "error: cannot write " << json_path << "\n";
    return 1;
  }
  std::cout << "\nwrote " << json_path << "\n";
  return obs.finish() ? 0 : 1;
}

int main(int argc, char** argv) {
  static constexpr std::string_view kFlags[] = {
      "seed", "reps", "out", "trace", "metrics", "trace-ring"};
  return ftspan::bench::run_main(argc, argv, bench_main, kFlags);
}
